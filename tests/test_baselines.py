"""Selection baselines and the comparison report."""

import io
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskrouter import (
    CoverageError,
    InvalidInputError,
    QueryGrid,
    Sample,
    average_baseline,
    build_comparison_report,
    chance_majority,
    chance_uniform,
    oracle_accuracy,
    upper_bound_accuracy,
    voting_accuracy,
    voting_predict,
)
from taskrouter.synth import WorldSpec, generate_world

from conftest import PARTIAL_RECORDS, make_micro_world, partial_micro_world
from oracles import (accuracy_table, filter_valid_prompts, sample_index, table_average,
                     table_oracle)


def sample_with_k_options(k, gold=0, sid="s0"):
    return Sample(sid, "d", f"img/{sid}", {}, tuple(f"o{i}" for i in range(k)), gold)


class TestChance:
    def test_uniform_100_options(self):
        samples = [sample_with_k_options(100, sid=f"s{i}") for i in range(5)]
        assert chance_uniform(samples) == 0.01

    def test_uniform_binary(self):
        samples = [sample_with_k_options(2, sid=f"s{i}") for i in range(4)]
        assert chance_uniform(samples) == 0.5

    def test_uniform_mixed(self):
        samples = [sample_with_k_options(2, sid="a"), sample_with_k_options(4, sid="b")]
        assert chance_uniform(samples) == pytest.approx(0.375)

    def test_majority_571(self):
        samples = [
            sample_with_k_options(2, gold=0, sid=f"s{i}") for i in range(571)
        ] + [
            sample_with_k_options(2, gold=1, sid=f"t{i}") for i in range(429)
        ]
        assert chance_majority(samples) == pytest.approx(0.571)

    def test_majority_balanced(self):
        samples = [sample_with_k_options(2, gold=i % 2, sid=f"s{i}") for i in range(10)]
        assert chance_majority(samples) == 0.5

    def test_majority_matches_counting_oracle(self, rng):
        samples = [
            sample_with_k_options(4, gold=int(rng.integers(4)), sid=f"s{i}")
            for i in range(200)
        ]
        counts = Counter(s.response_options[s.gold_index] for s in samples)
        assert chance_majority(samples) == counts.most_common(1)[0][1] / 200

    @given(st.lists(st.integers(1, 8) | st.integers(9, 1000), min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_uniform_equals_the_per_sample_sum(self, option_counts):
        # one Fraction per distinct option count gives the same rational
        # total, so the same float, as one Fraction per sample
        samples = [sample_with_k_options(k, sid=f"s{i}") for i, k in enumerate(option_counts)]
        per_sample = sum(Fraction(1, k) for k in option_counts) / len(option_counts)
        assert chance_uniform(samples) == float(per_sample)

    def test_uniform_ignores_option_contents(self):
        a = [Sample("s0", "d", "i", {}, ("x", "y", "z"), 1)]
        b = [Sample("s0", "d", "i", {}, ("p", "q", "r"), 2)]
        assert chance_uniform(a) == chance_uniform(b)

    def test_empty(self):
        with pytest.raises(InvalidInputError):
            chance_uniform([])
        with pytest.raises(InvalidInputError):
            chance_majority([])


class TestAverageAndOracle:
    def _grid(self, marginals):
        # 100 samples on one variant; model m is right on the first
        # round(100 * marginals[m]) of them
        correctness = {(m, i, "q0-o0"): i < round(acc * 100)
                       for m, acc in marginals.items() for i in range(100)}
        return QueryGrid.build(make_micro_world(n_samples=100, models=tuple(marginals),
                                                correctness=correctness,
                                                with_empty_question=False))

    def test_average_two_models(self):
        assert average_baseline(self._grid({"a": 0.6, "b": 0.8}), "micro") == pytest.approx(0.7)

    def test_average_single_model_identity(self):
        assert average_baseline(self._grid({"a": 0.42}), "micro") == pytest.approx(0.42)

    def test_average_matches_independent_mean(self, rng):
        marginals = {f"m{i}": float(rng.integers(101)) / 100 for i in range(7)}
        expected = float(np.mean(list(marginals.values())))
        assert average_baseline(self._grid(marginals), "micro") == pytest.approx(expected)

    def test_oracle_max(self):
        assert oracle_accuracy(self._grid({"a": 0.6, "b": 0.9}), "micro") == pytest.approx(0.9)

    def test_oracle_degenerate(self):
        assert oracle_accuracy(self._grid({"a": 0.5, "b": 0.5}), "micro") == pytest.approx(0.5)

    def test_oracle_matches_brute_force(self, rng):
        marginals = {f"m{i}": float(rng.integers(101)) / 100 for i in range(9)}
        assert oracle_accuracy(self._grid(marginals), "micro") == max(marginals.values())

    def test_unknown_dataset(self):
        for strategy in (average_baseline, oracle_accuracy):
            with pytest.raises(InvalidInputError,
                               match=r"^no recorded queries in datasets \['elsewhere'\]$"):
                strategy(self._grid({"a": 0.5}), "elsewhere")


@pytest.mark.parametrize("case", sorted(PARTIAL_RECORDS))
def test_average_and_oracle_on_partial_and_unrecorded_grids(case):
    # average and oracle are the mean and the max of the reference table's
    # marginals over the models with records; voting and the upper bound
    # refuse a partial grid first. Every strategy refuses a dataset without
    # records, and an unknown one, with the same words
    world, records = partial_micro_world(case)
    grid = QueryGrid.build(world, records)
    valid = filter_valid_prompts(records, world.prompt_configs)
    partial = case in ("one_record_short", "variant_short", "model_short")
    for strategy in (average_baseline, oracle_accuracy, voting_accuracy, upper_bound_accuracy):
        for ds in ("micro", "elsewhere"):
            if partial and strategy in (voting_accuracy, upper_bound_accuracy):
                with pytest.raises(CoverageError, match=r"lack full model coverage"):
                    strategy(grid, ds)
            elif ds == "elsewhere" or not valid:
                with pytest.raises(InvalidInputError,
                                   match=rf"^no recorded queries in datasets \['{ds}'\]$"):
                    strategy(grid, ds)
    if not valid:
        return
    table = accuracy_table(valid)
    assert average_baseline(grid, "micro") == table_average(table, "micro")
    assert oracle_accuracy(grid, "micro") == table_oracle(table, "micro")


class TestVoting:
    def test_mode(self):
        assert voting_predict([0, 0, 1]) == 0

    def test_tie_breaks_low(self):
        assert voting_predict([0, 1]) == 0
        assert voting_predict([2, 1, 2, 1]) == 1

    def test_matches_histogram_argmax(self, rng):
        for _ in range(1000):
            votes = [int(v) for v in rng.integers(0, 5, size=7)]
            got = voting_predict(votes)
            hist = Counter(votes)
            best = min(i for i in hist if hist[i] == max(hist.values()))
            assert got == best

    def test_model_axis_permutation_invariance(self, rng):
        votes = [int(v) for v in rng.integers(0, 4, size=9)]
        shuffled = list(votes)
        rng.shuffle(shuffled)
        assert voting_predict(votes) == voting_predict(shuffled)

    def test_empty(self):
        with pytest.raises(InvalidInputError):
            voting_predict([])


class TestUpperBound:
    def test_counting_example(self):
        # A correct on s1, B on s2, nobody on s3 -> 2/3
        correctness = {
            ("alpha", 0, "q1-o0"): True,
            ("beta", 1, "q1-o0"): True,
        }
        world = make_micro_world(n_samples=3, correctness=correctness)
        records = [r for r in world.records if r.prompt_variant_id == "q1-o0"]
        acc = upper_bound_accuracy(QueryGrid.build(world, records), "micro")
        assert acc == pytest.approx(2 / 3)

    def test_dominant_model_means_100(self):
        correctness = {
            ("alpha", i, v): True
            for i in range(4) for v in ("q0-o0", "q1-o0")
        }
        world = make_micro_world(n_samples=4, correctness=correctness)
        assert upper_bound_accuracy(QueryGrid.build(world), "micro") == 1.0

    def test_matches_counting_oracle(self, rng):
        spec = WorldSpec(
            n_datasets=1, samples_per_dataset=50, options_range=(3, 3),
            competence={"x": (0.5,), "y": (0.4,), "z": (0.3,)},
            signal_mode="none", seed=4,
        )
        world = generate_world(spec)
        got = upper_bound_accuracy(QueryGrid.build(world), "ds00")
        by_pair = {}
        for r in world.records:
            by_pair.setdefault((r.sample_id, r.prompt_variant_id), []).append(r.correct)
        per_variant = {}
        for (sid, vid), flags in by_pair.items():
            per_variant.setdefault(vid, []).append(any(flags))
        expected = np.mean([np.mean(v) for v in per_variant.values()])
        assert got == pytest.approx(float(expected))

    def test_coverage_gap(self):
        world = make_micro_world(n_samples=2)
        partial = [r for r in world.records if not (
            r.model_id == "gamma" and r.sample_id == "s1"
        )]
        with pytest.raises(CoverageError):
            upper_bound_accuracy(QueryGrid.build(world, partial), "micro")


class TestComparisonReport:
    def test_dominant_world_non_chance_columns_are_100(self):
        # a pool consisting of one always-correct model
        spec = WorldSpec(
            n_datasets=2, samples_per_dataset=40, options_range=(3, 3),
            competence={"best": (1.0, 1.0)},
            signal_mode="none", seed=8,
        )
        world = generate_world(spec)
        report = build_comparison_report(
            QueryGrid.build(world), router_accuracies={"ds00": 1.0, "ds01": 1.0}
        )
        for ds in ("ds00", "ds01"):
            for strategy in ("average", "voting", "router", "oracle", "upper_bound"):
                assert report.cell(ds, strategy) == 100.0
            assert report.cell(ds, "chance") == pytest.approx(100 / 3)

    def test_weighted_average_self_consistent(self, small_keyword_world):
        world = small_keyword_world
        report = build_comparison_report(QueryGrid.build(world))
        from taskrouter import weighted_average

        for strategy in ("chance", "average", "voting", "oracle", "upper_bound"):
            column = {ds: report.cell(ds, strategy) for ds in report.dataset_ids}
            expected = weighted_average(column, report.sizes)
            assert report.weighted_averages[strategy] == pytest.approx(expected)
            plain = sum(column.values()) / len(column)
            assert report.averages[strategy] == pytest.approx(plain)

    def test_cost_row(self, small_keyword_world):
        report = build_comparison_report(QueryGrid.build(small_keyword_world))
        assert report.to_dict()["cost_over_n_models"] == {
            "chance": "-", "average": "O(1)", "voting": "O(N)",
            "router": "O(1)", "oracle": "O(N)", "upper_bound": "O(N)",
        }

    def test_csv_layout(self, small_keyword_world):
        report = build_comparison_report(QueryGrid.build(small_keyword_world))
        buf = io.StringIO()
        report.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "dataset,chance,average,voting,router,oracle,upper_bound"
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels == list(report.dataset_ids) + [
            "average", "average_weighted", "cost_over_n_models"
        ]
        assert lines[-1] == "cost_over_n_models,-,O(1),O(N),O(1),O(N),O(N)"

    def test_ordering_invariants(self):
        for seed in (1, 2, 3):
            spec = WorldSpec(
                n_datasets=3, samples_per_dataset=60, options_range=(2, 5),
                competence={
                    "a": (0.9, 0.2, 0.5), "b": (0.3, 0.8, 0.5),
                    "c": (0.5, 0.5, 0.1), "d": (0.2, 0.2, 0.9),
                },
                signal_mode="none", seed=seed,
            )
            world = generate_world(spec)
            report = build_comparison_report(QueryGrid.build(world))
            for ds in report.dataset_ids:
                upper = report.cell(ds, "upper_bound")
                assert upper + 1e-9 >= report.cell(ds, "oracle")
                assert report.cell(ds, "oracle") + 1e-9 >= report.cell(ds, "average")
                assert upper + 1e-9 >= report.cell(ds, "voting")

    def test_majority_chance_kind(self, small_keyword_world):
        report = build_comparison_report(QueryGrid.build(small_keyword_world),
                                         chance_kind="majority")
        assert report.chance_kind == "majority"
        for ds, manifest in small_keyword_world.datasets.items():
            assert report.cell(ds, "chance") == pytest.approx(
                100.0 * chance_majority(manifest.samples)
            )

    def test_router_column_blank_without_router(self, small_keyword_world):
        report = build_comparison_report(QueryGrid.build(small_keyword_world))
        assert all(report.cell(ds, "router") is None for ds in report.dataset_ids)
        assert report.averages["router"] is None
        buf = io.StringIO()
        report.write_csv(buf)
        first_data_row = buf.getvalue().splitlines()[1].split(",")
        assert first_data_row[4] == ""  # router column empty

    def test_json_export(self, tmp_path, small_keyword_world):
        report = build_comparison_report(QueryGrid.build(small_keyword_world))
        report.write_json(tmp_path / "report.json")
        import json

        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded["chance_kind"] == "uniform"
        assert loaded["cost_over_n_models"]["voting"] == "O(N)"
        assert set(loaded["cells"]) == {
            "chance", "average", "voting", "router", "oracle", "upper_bound"
        }


def test_voting_accuracy_micro():
    # two of three models correct on each sample -> modal prediction correct
    correctness = {}
    for i in range(4):
        correctness[("alpha", i, "q1-o0")] = True
        correctness[("beta", i, "q1-o0")] = True
    world = make_micro_world(n_samples=4, correctness=correctness)
    acc = voting_accuracy(
        QueryGrid.build(world, [r for r in world.records if r.prompt_variant_id == "q1-o0"]),
        "micro",
    )
    assert acc == 1.0


def test_voting_accuracy_matches_per_pair_oracle(small_keyword_world):
    world = small_keyword_world
    from oracles import filter_valid_prompts

    valid = filter_valid_prompts(world.records, world.prompt_configs)
    samples = sample_index(world)
    for ds in world.datasets:
        got = voting_accuracy(QueryGrid.build(world, valid), ds)
        by_pair = {}
        for r in valid:
            if r.dataset_id == ds:
                by_pair.setdefault((r.sample_id, r.prompt_variant_id), {})[
                    r.model_id] = r.predicted_index
        per_variant = {}
        for (sid, vid), votes in by_pair.items():
            modal = voting_predict(list(votes.values()))
            per_variant.setdefault(vid, []).append(
                modal == samples[(ds, sid)].gold_index
            )
        expected = np.mean([np.mean(v) for v in per_variant.values()])
        assert got == pytest.approx(float(expected))
