"""Rules the package source keeps."""

import ast
import dataclasses
import sys
from pathlib import Path

import taskrouter
from taskrouter.core import QueryGrid


# code that no CLI flow ran, deleted; a saved corpus is written, never read back
_REMOVED = {"run_in_distribution", "SelectionDistribution", "selection_heatmap", "load_corpus",
            "_read_sidecar", "route_rows", "read_jsonl", "read_lines"}


def test_removed_code_stays_removed():
    package = Path(taskrouter.__file__).parent
    found = [f"{path.name}:{node.lineno} {node.name}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in _REMOVED]
    exported = sorted(_REMOVED & set(dir(taskrouter)))
    assert found == [] and exported == []


def test_no_invariant_is_guarded_by_assert():
    # ``python -O`` strips assert statements, so invariants raise errors instead
    sources = sorted(Path(taskrouter.__file__).parent.glob("*.py"))
    assert sources
    asserts = [f"{path.name}:{node.lineno}" for path in sources
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.Assert)]
    assert asserts == []


def _call_name(call: ast.Call) -> str | None:
    """The called function's name: ``f`` in ``f(...)`` and ``x.f(...)``."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _writes_a_file(call: ast.Call) -> bool:
    """A ``write_text``/``write_bytes``/``mkdir``/``makedirs`` call, or an
    ``open`` whose mode may write, append or create (a mode that is not a
    string literal counts)."""
    name = _call_name(call)
    if name in ("write_text", "write_bytes", "mkdir", "makedirs"):
        return True
    if name != "open":
        return False
    # open(file, mode) takes the mode second; Path(...).open(mode) first
    position = 1 if isinstance(call.func, ast.Name) else 0
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[position] if len(call.args) > position else None)
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return bool(set(mode.value) & set("wax+"))


def test_files_are_written_only_through_atomic_open():
    # a write in place leaves a torn file when it fails part way, and a
    # directory made before its first file outlives a command that fails
    sources = sorted(Path(taskrouter.__file__).parent.glob("*.py"))
    writes = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and path.name == "core.py"
                   and fn.name == "atomic_open" for node in ast.walk(fn)}
        writes += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and id(node) not in allowed
                   and _writes_a_file(node)]
    assert writes == []


def _parses_read_text(call: ast.Call) -> bool:
    """``json.loads(<x>.read_text())``."""
    func = call.func
    arg = call.args[0] if call.args else None
    return (isinstance(func, ast.Attribute) and func.attr == "loads"
            and isinstance(func.value, ast.Name) and func.value.id == "json"
            and isinstance(arg, ast.Call) and isinstance(arg.func, ast.Attribute)
            and arg.func.attr == "read_text")


def test_json_files_are_read_only_through_read_json():
    # a bare json.loads names no file when the JSON in it is damaged
    sources = sorted(Path(taskrouter.__file__).parent.glob("*.py"))
    reads = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and _parses_read_text(node)]
    assert reads == []


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _calls_in_loops(fn: ast.FunctionDef, names: set[str]) -> list[str]:
    """Calls of ``names`` that a loop in ``fn`` repeats: anywhere in a loop
    but the iterable of a ``for`` or of a comprehension's first generator,
    which is evaluated once."""
    found = []
    for loop in ast.walk(fn):
        if not isinstance(loop, _LOOPS):
            continue
        once = (None if isinstance(loop, ast.While) else
                loop.iter if isinstance(loop, (ast.For, ast.AsyncFor)) else
                loop.generators[0].iter)
        skip = {id(node) for node in ast.walk(once)} if once is not None else set()
        for node in ast.walk(loop):
            if isinstance(node, ast.Call) and id(node) not in skip \
                    and _call_name(node) in names:
                found.append(f"{fn.name}:{node.lineno} {_call_name(node)}")
    return found


def test_routing_scores_each_batch_in_one_call():
    # routing many lines one at a time pays the scorer's set-up per line
    package = Path(taskrouter.__file__).parent
    looped = []
    for module, function in (("router.py", "evaluate_router"), ("cli.py", "_cmd_router_route")):
        tree = ast.parse((package / module).read_text(), filename=module)
        fn = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == function)
        looped += _calls_in_loops(fn, {"route", "route_text", "scores_for"})
    assert looped == []


def test_training_featurizes_each_corpus_in_one_call():
    # featurizing line by line pays the hashing set-up per line, and a fold
    # that featurizes its own corpus repeats the others' work
    package = Path(taskrouter.__file__).parent
    looped = []
    for module, function in (("router.py", "train_router"), ("harness.py", "run_lodo"),
                             ("harness.py", "_lodo"), ("harness.py", "_run_fold")):
        tree = ast.parse((package / module).read_text(), filename=module)
        looped += _calls_in_loops(_function(tree, function), {"featurize", "featurize_batch"})
    assert looped == []


def test_training_and_replay_score_the_run_feature_rows():
    # validation and replay read the rows the run featurized once; hashing
    # their lines again, or featurizing in a fold, repeats that work
    package = Path(taskrouter.__file__).parent
    rehash = {"_choose", "_choose_chunk", "route_batch", "route_text", "featurize",
              "featurize_batch"}
    tree = ast.parse((package / "harness.py").read_text(), filename="harness.py")
    calls = [f"{function}:{node.lineno} {_call_name(node)}"
             for function in ("_run_fold", "_in_distribution")
             for node in ast.walk(_function(tree, function))
             if isinstance(node, ast.Call) and _call_name(node) in rehash]
    tree = ast.parse((package / "router.py").read_text(), filename="router.py")
    calls += _calls_in_loops(_function(tree, "train_router"), rehash)
    assert calls == []


def test_only_hashed_lines_take_the_gap_test():
    # stored feature rows are scored by the reference product itself; a
    # second fast row scorer would carry its own copy of the rounding bound
    tree = ast.parse((Path(taskrouter.__file__).parent / "router.py").read_text(),
                     filename="router.py")
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    callers = sorted({fn.name for fn in functions for node in ast.walk(fn)
                      if isinstance(node, ast.Call) and _call_name(node) == "_gap_test"})
    assert callers == ["_choose_chunk"]
    assert "_choose_rows_chunk" not in {fn.name for fn in functions}


def test_router_reads_no_corpus_line_marker():
    # the corpus line's markers are routerdata's; a router that parsed its
    # lines would be a second reader of their flags
    markers = {"IMG_MARK", "PROMPT_MARK", "OPTIONS_MARK", "SEP_MARK", "RESPONSE_MARK"}
    path = Path(taskrouter.__file__).parent / "router.py"
    named = [f"router.py:{node.lineno} {name}"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             for name in ([node.id] if isinstance(node, ast.Name) else
                          [alias.name for alias in node.names]
                          if isinstance(node, ast.ImportFrom) else [])
             if name in markers]
    assert named == []


def test_nothing_featurizes_one_line_at_a_time():
    # lines are hashed with ``featurize_batch``; ``featurize`` is its row 0,
    # kept as public API only
    sources = sorted(Path(taskrouter.__file__).parent.glob("*.py"))
    calls = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and _call_name(node) == "featurize"]
    assert calls == []


def test_corpus_labels_are_array_work():
    # labeling row by row pays a rule call and a table lookup per row and
    # model; the corpus labels each dataset at once from its cell array
    package = Path(taskrouter.__file__).parent
    tree = ast.parse((package / "routerdata.py").read_text(), filename="routerdata.py")
    looped = []
    for function in ("build_router_dataset", "router_corpora", "_corpus_labels"):
        looped += _calls_in_loops(_function(tree, function),
                                  {"select_best_model", "cell", "marginal"})
    assert looped == []


def _function(tree: ast.AST, name: str) -> ast.FunctionDef:
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_grid_rows_become_router_inputs_in_one_place():
    # a second serializer of grid rows could drift from the corpus lines;
    # rows go through ``routerdata.router_inputs``, and ``RouterModel.route``
    # serializes the one query it is given
    package = Path(taskrouter.__file__).parent
    serializers = {"render", "rendered_options", "serialize_input"}
    calls = []
    for module in ("harness.py", "router.py"):
        tree = ast.parse((package / module).read_text(), filename=module)
        allowed = set()
        if module == "router.py":
            model = next(node for node in ast.walk(tree)
                         if isinstance(node, ast.ClassDef) and node.name == "RouterModel")
            allowed = {id(node) for node in ast.walk(_function(model, "route"))}
        calls += [f"{module}:{node.lineno} {_call_name(node)}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in allowed
                  and _call_name(node) in serializers]
    assert calls == []


def test_corpus_replay_routes_the_corpus_lines():
    # a LODO fold and the in-distribution split route the lines of the corpus
    # they built; serializing their rows again would repeat that work
    package = Path(taskrouter.__file__).parent
    tree = ast.parse((package / "harness.py").read_text(), filename="harness.py")
    calls = [f"{function}:{node.lineno} {_call_name(node)}"
             for function in ("_run_fold", "_in_distribution")
             for node in ast.walk(_function(tree, function))
             if isinstance(node, ast.Call)
             and _call_name(node) in {"router_inputs", "evaluate_router"}]
    assert calls == []


def test_baselines_import_only_core_and_errors():
    # the report takes the router column as numbers; replaying a router is
    # its callers' work, so the strategy table does not depend on the router
    package = Path(taskrouter.__file__).parent
    tree = ast.parse((package / "baselines.py").read_text(), filename="baselines.py")
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level:  # from .x import y
            imported |= ({f"taskrouter.{node.module}"} if node.module else
                         {f"taskrouter.{alias.name}" for alias in node.names})
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert {m for m in imported if m.split(".")[0] == "taskrouter"} <= {
        "taskrouter.core", "taskrouter.errors"}


def test_corpus_replay_reads_no_provenance():
    # a corpus is columns read by position, and a dataset's examples are its
    # grid span's rows: the flows that train and replay build no example
    # object and read no example field, provenance among them
    package = Path(taskrouter.__file__).parent
    fields = {"serialized_input", "label_model_id", "raw_line", "provenance"}
    reads = []
    for module in ("harness.py", "router.py", "cli.py"):
        tree = ast.parse((package / module).read_text(), filename=module)
        for node in ast.walk(tree):
            named = ([node.id] if isinstance(node, ast.Name) else
                     [node.attr] if isinstance(node, ast.Attribute) else
                     [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [])
            if "RouterExample" in named or isinstance(node, ast.Attribute) and named[0] in fields:
                reads.append(f"{module}:{node.lineno} {named}")
    assert reads == []


def test_corpus_rows_and_fold_parts_are_array_work():
    # the corpus finds its covered rows once, and a fold or the
    # in-distribution split slices the corpus columns and the feature rows
    # by position instead of building a list per example
    package = Path(taskrouter.__file__).parent
    finders = [path.name for path in sorted(package.glob("*.py"))
               if "grid.covered.any(" in path.read_text()]
    assert finders == ["routerdata.py"]
    tree = ast.parse((package / "harness.py").read_text(), filename="harness.py")
    comprehensions = [f"{function}:{node.lineno}"
                      for function in ("_run_fold", "_in_distribution")
                      for node in ast.walk(_function(tree, function))
                      if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                           ast.GeneratorExp))]
    assert comprehensions == []


def test_record_paths_build_no_record_objects():
    # an object per record costs more than parsing it; these paths keep columns
    package = Path(taskrouter.__file__).parent
    built = []
    for module, path in (("core.py", "load_world"), ("core.py", "Records.load"),
                         ("core.py", "QueryGrid.build"), ("synth.py", "generate_world")):
        tree = ast.parse((package / module).read_text(), filename=module)
        for name in path.split("."):
            tree = _function(tree, name) if name[0].islower() else next(
                node for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and node.name == name)
        # any use of the class in the body (a call, ``from_dict``, a ``map``), not annotations
        built += [f"{path}:{node.lineno}" for stmt in tree.body for node in ast.walk(stmt)
                  if isinstance(node, ast.Name) and node.id == "ExecutionRecord"]
    assert built == []


def test_scoring_jobs_reach_a_backend_only_through_run_job():
    # each place that maps a job to a backend method could drift from the
    # others; ``scoring.run_job`` is the one map, for evaluate and the wire
    package = Path(taskrouter.__file__).parent
    ops = {"embed_image", "embed_texts", "option_token_logprobs"}
    calls = []
    for module in ("scoring.py", "wire.py"):
        tree = ast.parse((package / module).read_text(), filename=module)
        allowed = ({id(node) for node in ast.walk(_function(tree, "run_job"))}
                   if module == "scoring.py" else set())
        calls += [f"{module}:{node.lineno} {_call_name(node)}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in allowed
                  and _call_name(node) in ops]
    assert calls == []


_COERCIONS = {"int", "float", "bool", "tuple", "list", "dict"}
# readers of JSON objects besides the from_dicts: (module, function, the object it reads)
_HEADER_READERS = [("router.py", "load", "header"), ("wire.py", "_parse_info", "d"),
                   ("core.py", "_record_fields", "d"), ("core.py", "load_tasks", "raw"),
                   ("core.py", "load_world", "info")]


def _reads_raw(node: ast.AST, names: set[str]) -> bool:
    """Whether ``node`` reads one of ``names`` other than through
    ``typed_field``."""
    if isinstance(node, ast.Call) and _call_name(node) == "typed_field":
        return False
    if isinstance(node, ast.Name) and node.id in names:
        return True
    return any(_reads_raw(child, names) for child in ast.iter_child_nodes(node))


def _raw_coercions(fn: ast.FunctionDef, mapping: str) -> list[int]:
    """The lines of ``fn`` that coerce a value read from ``mapping``, or from
    a name bound to one, with ``int(``, ``tuple(`` and the like instead of
    checking it with ``typed_field``."""
    tainted = {mapping}
    for node in ast.walk(fn):
        source = (node.iter if isinstance(node, (ast.comprehension, ast.For))
                  else node.value if isinstance(node, ast.Assign) else None)
        if source is not None and _reads_raw(source, tainted):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            tainted |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [node.lineno for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _COERCIONS and any(_reads_raw(a, tainted) for a in node.args)]


def test_json_readers_coerce_no_field():
    # int("3"), tuple("ab") or dict([[k, v]]) turn a mistyped field into a
    # different value; every field is checked by ``core.typed_field`` instead
    package = Path(taskrouter.__file__).parent
    readers = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        readers += [(path.name, fn, fn.args.args[1].arg) for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef) and fn.name == "from_dict"]
    assert len(readers) >= 9
    for module, name, mapping in _HEADER_READERS:
        tree = ast.parse((package / module).read_text(), filename=module)
        readers.append((module, _function(tree, name), mapping))
    coercions = [f"{module}:{line} in {fn.name}" for module, fn, mapping in readers
                 for line in _raw_coercions(fn, mapping)]
    assert coercions == []


def test_wire_checks_no_field_type_itself():
    # the wire's request and info fields go through ``core.typed_field``
    path = Path(taskrouter.__file__).parent / "wire.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    checkers = [fn.name for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and "field" in fn.name]
    field_tests = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and _call_name(node) in ("isinstance", "type")
                   and any(isinstance(n, ast.Subscript) or isinstance(n, ast.Call)
                           and _call_name(n) == "get" for a in node.args for n in ast.walk(a))]
    assert checkers == [] and field_tests == []
    assert any(isinstance(node, ast.ImportFrom) and node.module == "core"
               and "typed_field" in {a.name for a in node.names} for node in ast.walk(tree))


def test_package_imports_only_the_standard_library_and_numpy():
    # the runtime needs numpy alone; an import of another installed package
    # (scipy, say) would pass here and fail where only numpy is installed
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    imports = []
    for path in sorted(Path(taskrouter.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imports += [(path.name, node.lineno, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports.append((path.name, node.lineno, node.module))
    assert imports
    assert [i for i in imports if i[2].split(".")[0] not in allowed] == []


def _parameters(fn: ast.FunctionDef) -> list[ast.arg]:
    return [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]


def test_harness_takes_no_seed_of_its_own():
    # a run's seed is ``TrainConfig.seed``; a second seed parameter would
    # overwrite it or be overwritten by it
    path = Path(taskrouter.__file__).parent / "harness.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    seeded = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
              and any(a.arg == "seed" for a in _parameters(fn))]
    assert seeded == []


def test_feature_rows_are_never_passed_with_a_featurizer():
    # ``FeatureRows.config`` hashed the rows; a featurizer passed beside
    # them could name another config
    both = []
    for path in sorted(Path(taskrouter.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(fn, ast.FunctionDef):
                kinds = {ast.unparse(a.annotation) for a in _parameters(fn) if a.annotation}
                if {"FeatureRows", "FeaturizerConfig"} <= kinds:
                    both.append(f"{path.name}:{fn.name}")
    assert both == []


def test_cli_reads_the_config_file_in_one_place():
    # ``--config`` is read and checked once, before any handler runs; a
    # handler that read it again could skip a section or read it late
    path = Path(taskrouter.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    readers = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and node.attr == "config"
               and isinstance(node.value, ast.Name) and node.value.id == "args"}
    assert readers == {"_resolve_settings"}


def test_cli_resolves_flags_and_the_output_directory_with_the_other_settings():
    # ``--flags`` parsed in a handler is checked only after the world is
    # read, and a handler that made its output directory left it behind
    # when a later input failed
    path = Path(taskrouter.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    parsers = {fn.name for fn in functions for node in ast.walk(fn)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "parse" and isinstance(node.func.value, ast.Name)
               and node.func.value.id == "SerializationFlags"}
    assert parsers == {"_resolve_settings"}
    assert "_out_dir" not in {fn.name for fn in functions}


def test_record_tables_are_built_and_joined_one_way():
    # a table is built from strings by ``Records.from_columns`` (through
    # ``IdColumn.encode``) and joined by ``Records.concat``; a private
    # encoder beside them could order or keep ids differently
    package = Path(taskrouter.__file__).parent
    defined, calls, imports = [], [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name in ("_Encoder", "_from_blocks"):
                defined.append(f"{path.name}:{node.lineno} {node.name}")
            if isinstance(node, ast.Call) and _call_name(node) == "ExecutionRecord" \
                    and path.name != "core.py":
                calls.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and path.name in ("scoring.py", "synth.py") \
                    and any(alias.name == "ExecutionRecord" for alias in node.names):
                imports.append(f"{path.name}:{node.lineno}")
    assert (defined, calls, imports) == ([], [], [])


def test_counts_are_read_from_the_query_grid():
    # a second table of the grid's counts would be built and regrouped
    # beside the arrays that hold them; every strategy reads the grid
    package = Path(taskrouter.__file__).parent
    assert [path.name for path in sorted(package.glob("*.py"))
            if "AccuracyTable" in path.read_text()] == []
    tree = ast.parse((package / "baselines.py").read_text(), filename="baselines.py")
    firsts = {name: ast.unparse(_parameters(_function(tree, name))[0].annotation)
              for name in ("average_baseline", "voting_accuracy", "oracle_accuracy",
                           "upper_bound_accuracy")}
    assert firsts == dict.fromkeys(firsts, "QueryGrid")


def _nested_in_sample_loops(fn: ast.FunctionDef) -> list[int]:
    """Lines of the loops and comprehensions inside ``fn``'s loops over a
    manifest's ``.samples``, and of comprehensions over them with a second
    ``for``."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    nested = []
    for node in ast.walk(fn):
        iters = ([node.iter] if isinstance(node, ast.For) else
                 [g.iter for g in node.generators] if isinstance(node, loops[2:]) else [])
        if any(".samples" in ast.unparse(it) for it in iters):
            nested += [inner.lineno for inner in ast.walk(node)
                       if inner is not node and isinstance(inner, loops)]
            nested += [node.lineno] * (len(iters) > 1)
    return nested


def test_grid_rows_are_codes():
    # a list of (dataset, sample, variant) objects per row repeats what the
    # row codes and spans already say, and costs an object per row to build;
    # rows become objects only through ``QueryGrid.queries``
    assert {f.name for f in dataclasses.fields(QueryGrid)} & {"queries", "variant_ids"} == set()
    package = Path(taskrouter.__file__).parent
    assert [path.name for path in sorted(package.glob("*.py"))
            if ".queries[" in path.read_text()] == []
    tree = ast.parse((package / "core.py").read_text(), filename="core.py")
    grid = next(node for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and node.name == "QueryGrid")
    assert _nested_in_sample_loops(_function(grid, "build")) == []


def test_scoring_reads_the_task_files_through_one_reader():
    # scoring needs only the manifests and prompt configs, so ``eval run``
    # and ``prompts expand`` do not read a world's records or metadata;
    # ``load_world`` reads those two files only through ``load_tasks``, so
    # the two readers check them alike
    package = Path(taskrouter.__file__).parent
    cli = ast.parse((package / "cli.py").read_text(), filename="cli.py")
    named = [f"{fn}:{node.lineno}" for fn in ("_cmd_eval_run", "_cmd_prompts_expand")
             for node in ast.walk(_function(cli, fn))
             if isinstance(node, ast.Name) and node.id == "load_world"
             or isinstance(node, ast.Attribute) and node.attr == "load_world"]
    assert named == []
    load_world = _function(ast.parse((package / "core.py").read_text(), filename="core.py"),
                           "load_world")
    calls = {_call_name(node) for node in ast.walk(load_world) if isinstance(node, ast.Call)}
    assert "load_tasks" in calls
    assert calls & {"load_manifests", "DatasetPromptConfig", "from_dict"} == set()
    assert [node.value for node in ast.walk(load_world) if isinstance(node, ast.Constant)
            and node.value in ("datasets.jsonl", "prompt_configs.json")] == []


def test_world_readers_read_saved_blocks_through_one_pattern():
    # a JSON object per line costs more than one compiled pattern over a
    # block of saved lines; ``json`` reads only the blocks that fall back to
    # the line-by-line readers, and ``_unescaped`` decodes each distinct
    # escaped id once
    tree = ast.parse((Path(taskrouter.__file__).parent / "core.py").read_text(),
                     filename="core.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    records = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "Records")
    fallbacks = {"_check_block", "_keyed_lines", "_unescaped"}
    parsers = []
    for entry in (_function(records, "load"), functions["load_metadata"]):
        reached, todo = {}, [entry]  # the module's functions the entry calls or passes on
        while todo:
            for node in ast.walk(todo.pop()):
                if isinstance(node, ast.Name) and node.id in functions.keys() - fallbacks \
                        and node.id not in reached:
                    reached[node.id] = functions[node.id]
                    todo.append(functions[node.id])
        assert "_read_blocks" in reached, entry.name
        parsers += [f"{entry.name} -> {fn.name}:{node.lineno}"
                    for fn in (entry, *reached.values()) for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and (_call_name(node) in {"read_numbered_jsonl", "_numbered_objects",
                                              "_read_keyed"}
                         or ast.unparse(node.func) == "json.loads")]
    assert parsers == []
