"""Rules the package source keeps."""

import ast
from pathlib import Path

import taskrouter


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
    """A ``write_text``/``write_bytes`` call, or an ``open`` whose mode may
    write, append or create (a mode that is not a string literal counts)."""
    name = _call_name(call)
    if name in ("write_text", "write_bytes"):
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
    # a write in place leaves a torn file when it fails part way
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
    for module, function in (("router.py", "route_rows"), ("cli.py", "_cmd_router_route")):
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
                             ("harness.py", "_run_fold")):
        tree = ast.parse((package / module).read_text(), filename=module)
        looped += _calls_in_loops(_function(tree, function), {"featurize", "featurize_batch"})
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
             for function in ("_run_fold", "run_in_distribution")
             for node in ast.walk(_function(tree, function))
             if isinstance(node, ast.Call)
             and _call_name(node) in {"router_inputs", "route_rows", "evaluate_router"}]
    assert calls == []


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
