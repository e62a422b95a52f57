"""Engine v2 tests: pinned saturation outputs and hash-seed determinism,
worklist-extractor parity with the old fixpoint, saturation reuse, engine
counters, and the runner's deadline/truncation/budget satellites."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.isel import (
    DEFAULT_ISEL_LIMITS,
    SaturationCache,
    _rules_for,
    instruction_select,
)
from repro.cost.model import TargetCostModel
from repro.deadline import DeadlineExceeded, deadline
from repro.egraph import (
    EGraph,
    EngineStats,
    ExtractionError,
    Extractor,
    RunnerLimits,
    TypedExtractor,
    engine_stats_sink,
    extract_variants,
    run_rules,
    rw,
)
from repro.ir import parse_expr
from repro.ir.printer import expr_to_sexpr
from repro.targets import get_target

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Small budget so the pinned-output tests cover several saturation
#: iterations (including match-budget truncation) without CI cost.
SMALL = RunnerLimits(
    max_iterations=3, max_nodes=700, max_matches_per_rule=80, time_limit=5.0
)

KERNELS = [
    "(- (sqrt (+ x 1)) (sqrt x))",
    "(/ (sin x) (+ 1 (cos x)))",
    "(* (exp x) (exp y))",
    "(sqrt (+ (* x x) (* y y)))",
    "(exp (/ (- 0 (* x x)) (* 2 (* y y))))",
]

#: SHA-256 of each kernel's newline-joined c99 variant list at ``SMALL``
#: limits, as produced by both the full and the since-removed incremental
#: re-matching modes; an engine change that alters one changes compile
#: outputs.
KERNEL_DIGESTS = [
    "f80723301bbbc133839ba93a4be0e1072e8357cad8257d57848d796c2062c983",
    "949b53e24f36bc40870a0c2dc46871d4948c5c89464493c31d7ee8a349e942c9",
    "86393579a50c919bad1cea7ca09fa41b8e664b724b0c2b946642935085e880c8",
    "ecec769685527f7752cdee645303b00fbc5b3c9d152c8cc65b5ef518c8969283",
    "cf66e073fec92df217e59e19dc327207bfde892a985507eeca76027caf2784f5",
]


def _variants(source: str, limits=SMALL) -> list[str]:
    target = get_target("c99")
    expr = parse_expr(source)
    egraph = EGraph()
    root = egraph.add_expr(expr)
    run_rules(egraph, _rules_for(target), limits)
    extractor = TypedExtractor(
        egraph, TargetCostModel(target),
        {name: "binary64" for name in expr.free_vars()},
    )
    return [
        expr_to_sexpr(v)
        for v in extract_variants(egraph, extractor, root, "binary64")
    ]


class TestIncrementalEquivalence:
    """Saturation outputs pinned to the values both re-matching modes
    produced before the incremental mode was removed (hence the names)."""

    @pytest.mark.parametrize(
        "source,digest", list(zip(KERNELS, KERNEL_DIGESTS)), ids=KERNELS
    )
    def test_full_and_incremental_extract_identically(self, source, digest):
        variants = "\n".join(_variants(source)).encode()
        assert hashlib.sha256(variants).hexdigest() == digest

    def test_identical_graphs_not_just_extractions(self):
        egraph = EGraph()
        egraph.add_expr(parse_expr(KERNELS[0]))
        run_rules(egraph, _rules_for(get_target("c99")), SMALL)
        assert (egraph.num_nodes, egraph.num_classes, egraph.version) == (
            695, 234, 501
        )

    def test_deep_chain_match_at_unchanged_root(self):
        # The match of "outer" only becomes available after "inner" fires
        # in a *descendant* class (iteration 0 has no ``(+ _ 0)`` node at
        # all); the root's own sqrt node never changes, yet the match must
        # be found there in iteration 1.
        rules = [
            rw("inner", "(* a 1)", "(+ a 0)"),
            rw("outer", "(sqrt (+ q 0))", "(exp q)"),
        ]
        g = EGraph()
        root = g.add_expr(parse_expr("(sqrt (* x 1))"))
        run_rules(g, rules, RunnerLimits(max_iterations=6))
        assert g.represents(root, parse_expr("(exp x)"))
        assert g.represents(root, parse_expr("(sqrt (+ x 0))"))


class TestHashSeedDeterminism:
    def test_stable_under_pythonhashseed(self):
        script = (
            "from repro.egraph import EGraph, run_rules, RunnerLimits, "
            "TypedExtractor, extract_variants\n"
            "from repro.core.isel import _rules_for\n"
            "from repro.cost.model import TargetCostModel\n"
            "from repro.ir import parse_expr\n"
            "from repro.ir.printer import expr_to_sexpr\n"
            "t = get_target('c99')\n"
            "e = parse_expr('(- (sqrt (+ x 1)) (sqrt x))')\n"
            "g = EGraph(); root = g.add_expr(e)\n"
            "limits = RunnerLimits(max_iterations=3, max_nodes=500, "
            "max_matches_per_rule=60, time_limit=10.0)\n"
            "run_rules(g, _rules_for(t), limits)\n"
            "ex = TypedExtractor(g, TargetCostModel(t), {'x': 'binary64'})\n"
            "for v in extract_variants(g, ex, root, 'binary64'):\n"
            "    print(expr_to_sexpr(v))\n"
        )
        script = "from repro.targets import get_target\n" + script
        outputs = []
        for seed in ("0", "31337"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = SRC + os.pathsep * bool(
                env.get("PYTHONPATH")) + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


def _random_egraph(seed: int) -> EGraph:
    """A randomized, rebuilt e-graph for extractor parity testing."""
    rng = random.Random(seed)
    g = EGraph()
    leaves = ["a", "b", "c", "0", "1", "2"]
    ops = [("+", 2), ("*", 2), ("-", 2), ("sqrt", 1), ("neg", 1)]
    ids = [g.add_expr(parse_expr(leaf)) for leaf in leaves]
    for _ in range(rng.randrange(10, 40)):
        op, arity = rng.choice(ops)
        args = tuple(rng.choice(ids) for _ in range(arity))
        ids.append(g.add_node(op, args))
    for _ in range(rng.randrange(0, 8)):
        g.union(rng.choice(ids), rng.choice(ids))
    g.rebuild()
    return g


def _reference_best(egraph, node_cost):
    """The seed engine's whole-graph fixpoint sweep (pre-worklist)."""
    best = {}
    changed = True
    while changed:
        changed = False
        for eclass in egraph.classes():
            cid = egraph.find(eclass.id)
            current = best.get(cid)
            for node in eclass.nodes:
                child_costs = []
                feasible = True
                for arg in node[1]:
                    entry = best.get(egraph.find(arg))
                    if entry is None:
                        feasible = False
                        break
                    child_costs.append(entry[0])
                if not feasible:
                    continue
                cost = node_cost(node[0], child_costs)
                if cost is None or cost == float("inf"):
                    continue
                if current is None or cost < current[0]:
                    current = (cost, node)
                    best[cid] = current
                    changed = True
    return best


def _reference_typed_best(egraph, model, var_types):
    """The seed TypedExtractor fixpoint (whole-graph sweeps)."""
    from repro.egraph.enode import is_op_head

    best = {}

    def options(node):
        head, args = node
        if is_op_head(head):
            signature = model.operator_signature(head)
            if signature is None:
                return
            arg_types, ret_type = signature
            if len(arg_types) != len(args):
                return
            total = model.operator_cost(head)
            for arg, arg_ty in zip(args, arg_types):
                entry = best.get(egraph.find(arg), {}).get(arg_ty)
                if entry is None:
                    return
                total += entry[0]
            yield ret_type, total, arg_types
            return
        tag = head[0]
        if tag == "var":
            ty = var_types.get(head[1])
            if ty is not None:
                yield ty, model.variable_cost(ty), ()
        elif tag in ("num", "const"):
            if tag == "const" and head[1] in ("TRUE", "FALSE", "NAN"):
                return
            for ty in model.literal_types():
                yield ty, model.literal_cost(ty), ()

    changed = True
    while changed:
        changed = False
        for eclass in egraph.classes():
            cid = egraph.find(eclass.id)
            table = best.setdefault(cid, {})
            for node in eclass.nodes:
                for ty, cost, arg_types in options(node):
                    current = table.get(ty)
                    if current is None or cost < current[0]:
                        table[ty] = (cost, node, arg_types)
                        changed = True
    return best


class TestWorklistExtractorParity:
    @pytest.mark.parametrize("seed", range(25))
    def test_untyped_costs_match_fixpoint(self, seed):
        g = _random_egraph(seed)
        from repro.egraph.extract import ast_size_cost

        reference = _reference_best(g, ast_size_cost)
        extractor = Extractor(g)
        for eclass in g.classes():
            cid = g.find(eclass.id)
            expected = reference.get(cid)
            got = extractor.cost_of(cid)
            if expected is None:
                assert got is None
            else:
                assert got == expected[0]
                # The extracted expression must realize the best cost and
                # actually be represented by the class.
                expr = extractor.extract(cid)
                assert expr.size() == expected[0]
                assert g.represents(cid, expr)

    @pytest.mark.parametrize("seed", range(10))
    def test_typed_costs_match_fixpoint(self, seed):
        g = _random_egraph(seed)
        model = TargetCostModel(get_target("c99"))
        var_types = {"a": "binary64", "b": "binary64", "c": "binary64"}
        reference = _reference_typed_best(g, model, var_types)
        extractor = TypedExtractor(g, model, var_types)
        for eclass in g.classes():
            cid = g.find(eclass.id)
            expected = {
                ty: entry[0] for ty, entry in reference.get(cid, {}).items()
            }
            got = {
                ty: extractor.cost_of(cid, ty)
                for ty in extractor.available_types(cid)
            }
            assert got == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_num_nodes_accounting(self, seed):
        g = _random_egraph(seed)
        assert g.num_nodes == sum(len(c.nodes) for c in g.classes())

    @pytest.mark.parametrize("seed", range(10))
    def test_head_index_matches_scan(self, seed):
        g = _random_egraph(seed)
        for op in ("+", "*", "sqrt", "neg", "-"):
            indexed = set(g.classes_with_head(op))
            scanned = {
                g.find(eclass.id)
                for eclass in g.classes()
                if any(node[0] == op for node in eclass.nodes)
            }
            assert indexed == scanned

    def test_snapshot_reused_across_cost_functions(self):
        g = _random_egraph(3)
        first = Extractor(g)
        second = first.reuse(lambda head, costs: 2.0 + sum(costs))
        assert first.snapshot is second.snapshot
        g.add_expr(parse_expr("(+ a (* b c))"))
        third = Extractor(g)
        assert third.snapshot is not first.snapshot


class TestRunnerSatellites:
    def test_search_phase_polls_deadline(self):
        g = EGraph()
        g.add_expr(parse_expr("(+ (+ a b) (+ c d))"))
        rules = [
            rw("comm", "(+ a b)", "(+ b a)"),
            rw("grow", "(+ a b)", "(+ (* a a) b)"),
        ]
        with pytest.raises(DeadlineExceeded):
            with deadline(0.0001):
                import time

                time.sleep(0.001)
                run_rules(g, rules, RunnerLimits(max_iterations=50,
                                                 max_nodes=10**6))

    def test_apply_phase_respects_time_limit(self):
        g = EGraph()
        g.add_expr(parse_expr("(+ (+ a b) (+ c d))"))
        rules = [rw("grow", "(+ a b)", "(+ (* a a) b)")]
        report = run_rules(
            g, rules,
            RunnerLimits(max_iterations=10**6, max_nodes=10**9,
                         max_matches_per_rule=10**6, time_limit=0.2),
        )
        assert report.stop_reason == "time-limit"

    def test_truncation_reported(self):
        g = EGraph()
        g.add_expr(parse_expr("(+ (+ (+ a b) (+ c d)) (+ (+ e f) (+ g h)))"))
        rules = [rw("comm", "(+ a b)", "(+ b a)")]
        report = run_rules(
            g, rules,
            RunnerLimits(max_iterations=1, max_matches_per_rule=3),
        )
        assert report.rules_truncated.get("comm", 0) >= 1
        assert report.matches_found == 3

    def test_no_truncation_not_reported(self):
        g = EGraph()
        g.add_expr(parse_expr("(+ x 0)"))
        report = run_rules(g, [rw("id", "(+ a 0)", "a")])
        assert report.rules_truncated == {}

    def test_rule_skipped_on_spent_node_budget_runs_next_iteration(
        self, monkeypatch
    ):
        import repro.egraph.runner as runner_module

        searched = []
        real_search = runner_module.search_pattern

        def recording_search(egraph, pattern, *args, **kwargs):
            searched.append(expr_to_sexpr(pattern))
            return real_search(egraph, pattern, *args, **kwargs)

        monkeypatch.setattr(runner_module, "search_pattern", recording_search)
        g = EGraph()
        root = g.add_expr(parse_expr("(* (+ x 0) (+ y 0))"))  # 6 nodes
        rules = [rw("id", "(+ a 0)", "a"), rw("comm", "(* a b)", "(* b a)")]
        # Budget 2: "id" collects two node-free matches, which spends it,
        # so "comm" is skipped in iteration 0.  Applying "id" adds no
        # nodes, so iteration 1 has budget again and searches "comm".
        report = run_rules(g, rules, RunnerLimits(max_nodes=8))
        assert searched[:3] == ["(+ a 0)", "(+ a 0)", "(* a b)"]
        assert report.stop_reason == "saturated"
        assert report.rule_matches == {"id": 2, "comm": 1}
        assert g.represents(root, parse_expr("(* y x)"))


class TestExtractionError:
    def test_carries_class_and_cost_name(self):
        g = EGraph()
        x = g.add_expr(parse_expr("x"))
        root = g.add_node("myop", (x,))
        extractor = Extractor(
            g, lambda head, costs: float("inf") if head == "myop"
            else 1.0 + sum(costs)
        )
        with pytest.raises(ExtractionError) as excinfo:
            extractor.extract(root)
        assert excinfo.value.class_id == g.find(root)
        assert "<lambda>" in excinfo.value.cost_name
        assert str(excinfo.value).startswith("e-class")
        # Still a KeyError for pre-v2 handlers.
        assert isinstance(excinfo.value, KeyError)

    def test_typed_extraction_error_carries_type(self):
        g = EGraph()
        root = g.add_expr(parse_expr("(+ x y)"))
        extractor = TypedExtractor(
            g, TargetCostModel(get_target("c99")), {}
        )  # no var types: nothing is extractable
        with pytest.raises(ExtractionError) as excinfo:
            extractor.extract(root, "binary64")
        assert excinfo.value.ty == "binary64"
        assert excinfo.value.class_id == g.find(root)

    def test_isel_skips_unextractable_candidates(self):
        # A candidate whose *grandchild* class turns out unextractable
        # passes multi-extraction's direct-arg feasibility pre-check but
        # raises ExtractionError during node_to_expr; it must be skipped
        # as one lost candidate, not crash the whole variant set.
        target = get_target("c99")
        g = EGraph()
        root = g.add_expr(parse_expr("(+ (* x y) z)"))
        run_rules(g, _rules_for(target), SMALL)
        types = {"x": "binary64", "y": "binary64", "z": "binary64"}
        extractor = TypedExtractor(g, TargetCostModel(target), types)
        baseline = extract_variants(g, extractor, root, "binary64")
        assert baseline
        x_class = g.find(g.lookup_expr(parse_expr("x")))
        extractor.best[x_class] = {}  # simulate an unextractable child
        degraded = extract_variants(g, extractor, root, "binary64")
        assert len(degraded) < len(baseline)


class TestSaturationCache:
    def test_hit_on_repeated_subexpression(self):
        target = get_target("c99")
        cache = SaturationCache()
        expr = parse_expr("(- (sqrt (+ x 1)) (sqrt x))")
        limits = SMALL
        first = instruction_select(
            expr, target, var_types={"x": "binary64"}, limits=limits,
            cache=cache,
        )
        second = instruction_select(
            expr, target, var_types={"x": "binary64"}, limits=limits,
            cache=cache,
        )
        assert cache.hits == 1 and cache.misses == 1
        assert [expr_to_sexpr(v) for v in first] == [
            expr_to_sexpr(v) for v in second
        ]

    def test_cached_matches_uncached(self):
        target = get_target("c99")
        cache = SaturationCache()
        expr = parse_expr("(* (exp x) (exp y))")
        kwargs = dict(
            var_types={"x": "binary64", "y": "binary64"}, limits=SMALL
        )
        cached = instruction_select(expr, target, cache=cache, **kwargs)
        uncached = instruction_select(expr, target, **kwargs)
        assert [expr_to_sexpr(v) for v in cached] == [
            expr_to_sexpr(v) for v in uncached
        ]

    def test_distinct_limits_distinct_entries(self):
        target = get_target("c99")
        cache = SaturationCache()
        expr = parse_expr("(+ x 0)")
        other = RunnerLimits(max_iterations=2, max_nodes=600,
                             max_matches_per_rule=80, time_limit=5.0)
        instruction_select(expr, target, limits=SMALL, cache=cache)
        instruction_select(expr, target, limits=other, cache=cache)
        assert cache.misses == 2 and cache.hits == 0

    def test_loop_counts_saturation_hits(self):
        from repro.core.loop import ImprovementLoop

        # A program whose two halves are the same subexpression: the
        # second localization path must hit the saturation cache.
        from repro.accuracy.sampler import SampleConfig, sample_core
        from repro.core.loop import CompileConfig
        from repro.ir.fpcore import parse_fpcore

        core = parse_fpcore(
            "(FPCore (x) :pre (< 0.1 x 10) "
            "(+ (sqrt (+ x 1)) (sqrt (+ x 1))))"
        )
        target = get_target("c99")
        samples = sample_core(core, SampleConfig(n_train=8, n_test=8))
        config = CompileConfig(
            iterations=1, localize_points=4,
            isel_limits=RunnerLimits(max_iterations=2, max_nodes=400,
                                     max_matches_per_rule=60,
                                     time_limit=5.0),
        )
        loop = ImprovementLoop(core, target, samples, config)
        loop.run(with_regimes=False)
        assert loop.saturation_hits + loop._saturations.misses > 0


class TestEngineStats:
    def test_sink_collects_run_counters(self):
        stats = EngineStats()
        with engine_stats_sink(stats):
            g = EGraph()
            g.add_expr(parse_expr("(+ (+ x 0) 0)"))
            run_rules(g, [rw("id", "(+ a 0)", "a")])
            g = EGraph()
            g.add_expr(parse_expr("(+ x y)"))
            run_rules(g, [rw("grow", "(+ a b)", "(+ (+ a b) b)")],
                      RunnerLimits(max_iterations=1))
        assert stats.saturations == 2
        assert stats.matches_applied >= 2
        assert stats.enodes_built >= 0
        assert stats.stop_reasons == {"saturated": 1, "iteration-limit": 1}
        assert stats.any()

    def test_sink_restored_after_region(self):
        from repro.egraph import current_sink

        stats = EngineStats()
        assert current_sink() is None
        with engine_stats_sink(stats):
            assert current_sink() is stats
        assert current_sink() is None

    def test_merge_and_delta(self):
        from repro.egraph import stats_delta

        a = EngineStats(enodes_built=5, rules_truncated={"x": 1},
                        stop_reasons={"saturated": 2})
        b = EngineStats(enodes_built=2, rules_truncated={"x": 2, "y": 1},
                        stop_reasons={"saturated": 1, "node-limit": 1})
        a.merge(b)
        assert a.enodes_built == 7
        assert a.rules_truncated == {"x": 3, "y": 1}
        assert a.stop_reasons == {"saturated": 3, "node-limit": 1}
        # Merging never aliases the other side's dicts.
        assert b.stop_reasons == {"saturated": 1, "node-limit": 1}
        delta = stats_delta(a.as_dict(), b.as_dict())
        assert delta["enodes_built"] == 5
        # Zero entries are dropped from dict-valued deltas.
        assert delta["rules_truncated"] == {"x": 1}
        assert delta["stop_reasons"] == {"saturated": 2}

    def test_session_surfaces_engine_counters(self):
        from repro.accuracy.sampler import SampleConfig
        from repro.core.loop import CompileConfig
        from repro.session import ChassisSession

        session = ChassisSession(
            config=CompileConfig(
                iterations=1, localize_points=4,
                isel_limits=RunnerLimits(max_iterations=2, max_nodes=400,
                                         max_matches_per_rule=60,
                                         time_limit=5.0),
            ),
            sample_config=SampleConfig(n_train=8, n_test=8),
        )
        session.compile(
            "(FPCore f (x) :pre (< 0.1 x 10) (- (sqrt (+ x 1)) (sqrt x)))",
            "c99",
        )
        engine = session.stats.as_dict()["engine"]
        assert engine["enodes_built"] > 0
        assert engine["saturations"] > 0
        assert engine["matches_applied"] > 0
