"""Cache-correctness properties and the benchmark harness.

The hot-path pass (canonical-key memoization, FM satisfiability /
projection caches, successor memoization) is only admissible if every
cache is *invisible*: same verdicts, same keys, same projections as the
uncached code.  These tests pin that down —

* a mutated-then-rekeyed :class:`ConstraintStore` never serves a stale
  canonical key (dirty-bit invalidation, property-tested over random
  assertion sequences);
* Fourier–Motzkin projection with the cache enabled equals projection
  with it disabled on randomized systems, and the component-wise
  satisfiability decision equals the monolithic one;
* verification with the successor memo disabled is byte-identical to
  the default;
* every Karp–Miller frontier order reaches the same verdict;
* the ``bench --record / --compare`` harness round-trips its JSON and
  flags regressions (and only regressions);
* the new ``VerifierConfig`` knobs serialize only when non-default, so
  content-addressed job keys are stable across versions.
"""

import itertools
import json
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.arith import fm
from repro.arith.constraints import Constraint, Rel, compare
from repro.arith.linexpr import LinExpr, const as linconst, var
from repro.database.fkgraph import SchemaClass
from repro.database.schema import DatabaseSchema, Relation, foreign_key, numeric
from repro.dsl import directory_jobs
from repro.logic.conditions import (
    And,
    ArithAtom,
    Eq,
    Exists,
    Not,
    Or,
    RelationAtom,
    eliminate_single_atom_exists,
    nnf_condition,
)
from repro.logic.terms import NULL as NULL_TERM, Const, id_var, num_var
from repro.perf.bench import (
    compare_records,
    compare_directories,
    family_names,
    load_record,
    record_families,
    run_family,
)
from repro.fuzz.coverage import COVERAGE
from repro.perf.counters import COUNTERS, PerfCounters
from repro.service.serialize import from_dict, to_dict
from repro.runtime import labels
from repro.service.suites import gallery_dir
from repro.symbolic import apply as apply_module
from repro.symbolic.apply import _apply_nnf, apply_condition, pull_exists
from repro.symbolic.store import ConstraintStore, Inconsistent, clear_canonical_caches
from repro.verifier import Verifier, VerifierConfig
from repro.verifier.task_vass import BOT, INIT, StepTag, SymState, TaskVASS
from repro.workloads import table1_workload
from repro.workloads.families import families_dir

from tests.test_store_properties import IDS, NUMS, SCHEMA, apply_ops, op_sequences

# ----------------------------------------------------------------------
# canonical-key staleness
# ----------------------------------------------------------------------


class TestCanonicalKeyFreshness:
    @given(op_sequences(), op_sequences())
    @settings(max_examples=120, deadline=None)
    def test_mutated_then_rekeyed_store_never_serves_stale_key(
        self, prefix, suffix
    ):
        """Interleaving canonical_key() calls with mutations must end at
        the same key as replaying all mutations with no intermediate
        reads — the dirty bit may never let a pre-mutation key leak."""
        interleaved = ConstraintStore(SCHEMA)
        if not apply_ops(interleaved, prefix):
            return
        interleaved.canonical_key()  # populate the cache mid-sequence
        if not apply_ops(interleaved, suffix):
            return
        interleaved.canonical_key()  # and again, twice
        key = interleaved.canonical_key()

        replayed = ConstraintStore(SCHEMA)
        assert apply_ops(replayed, prefix) and apply_ops(replayed, suffix)
        assert replayed.canonical_key() == key

    @given(op_sequences())
    @settings(max_examples=80, deadline=None)
    def test_copy_and_global_cache_clear_reproduce_the_key(self, ops):
        """The key survives copy() and does not depend on the global
        interning / per-constraint memo state."""
        store = ConstraintStore(SCHEMA)
        if not apply_ops(store, ops):
            return
        key = store.canonical_key()
        clone = store.copy()
        clone._canon_cache = None  # force a recompute
        assert clone.canonical_key() == key
        clear_canonical_caches()
        fresh = store.copy()
        fresh._canon_cache = None
        assert fresh.canonical_key() == key

    def test_every_mutator_invalidates(self):
        """Each store mutator drops the cached key (spot check on the
        dirty bit wiring)."""
        u, v = id_var("u"), id_var("v")
        n = num_var("n")
        store = ConstraintStore(SCHEMA)
        mutations = [
            lambda s: s.node_of(u) and None,
            lambda s: s.assert_not_null(s.node_of(u)),
            lambda s: s.assert_anchor(s.node_of(u), "F"),
            lambda s: s.assert_eq(s.nav(s.node_of(u), "price"), s.node_of(n)),
            lambda s: s.assert_neq(s.node_of(u), s.node_of(v)),
            lambda s: s.add_linear(LinExpr({s.node_of(n): 1}, -2), Rel.LE),
            lambda s: s.bind(v, s.node_of(u)),
            lambda s: s.pin(("p",), s.node_of(u)),
            lambda s: s.unpin_prefix(("p",)),
            lambda s: s.const(7),
        ]
        previous = store.canonical_key()
        seen = {previous}
        for index, mutate in enumerate(mutations):
            mutate(store)
            key = store.canonical_key()
            recomputed = store.copy()
            recomputed._canon_cache = None
            assert recomputed.canonical_key() == key, f"mutation {index}"
            seen.add(key)
        assert len(seen) > 2  # the sequence genuinely changed the store


# ----------------------------------------------------------------------
# Fourier–Motzkin caches
# ----------------------------------------------------------------------

UNKNOWNS = ("x", "y", "z", "w")


@st.composite
def constraint_systems(draw):
    constraints = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        coeffs = {
            unknown: draw(st.integers(min_value=-3, max_value=3))
            for unknown in draw(
                st.sets(st.sampled_from(UNKNOWNS), min_size=0, max_size=3)
            )
        }
        constant = draw(st.integers(min_value=-4, max_value=4))
        rel = draw(st.sampled_from(list(Rel)))
        constraints.append(Constraint(LinExpr(coeffs, constant), rel))
    return constraints


@st.composite
def keep_sets(draw):
    return set(draw(st.sets(st.sampled_from(UNKNOWNS), min_size=0, max_size=4)))


class TestFMCaches:
    @given(constraint_systems(), keep_sets())
    @settings(max_examples=200, deadline=None)
    def test_projection_cache_equals_uncached(self, constraints, keep):
        fm.clear_caches()
        cold_kept, cold_exact = fm.project_components(constraints, keep)
        warm_kept, warm_exact = fm.project_components(constraints, keep)
        raw_kept, raw_exact = fm.project_components_uncached(constraints, keep)
        assert cold_kept == warm_kept == raw_kept
        assert cold_exact == warm_exact == raw_exact

    @given(constraint_systems())
    @settings(max_examples=200, deadline=None)
    def test_componentwise_sat_equals_monolithic(self, constraints):
        fm.clear_caches()
        componentwise = fm.is_satisfiable(constraints)
        normalized = fm._normalize(list(constraints))
        monolithic = (
            False if normalized is None else fm._is_satisfiable_uncached(normalized)
        )
        assert componentwise == monolithic
        # and the cached re-query agrees
        assert fm.is_satisfiable(constraints) == componentwise

    @given(constraint_systems())
    @settings(max_examples=100, deadline=None)
    def test_sat_agrees_with_sample_existence(self, constraints):
        fm.clear_caches()
        assert fm.is_satisfiable(constraints) == (
            fm.sample_solution(constraints) is not None
        )

    @given(constraint_systems())
    @settings(max_examples=200, deadline=None)
    def test_system_memo_equals_uncached_and_replays_features(self, constraints):
        """A whole-system memo hit returns the uncached verdict and fires
        the features a cold decision fires — also when the memo was
        filled while the coverage registry was disabled."""
        normalized = fm._normalize(list(constraints))
        expected = (
            False if normalized is None else fm._is_satisfiable_uncached(normalized)
        )
        expected_features = set()
        for component in fm._connected_components(normalized or []):
            if any(c.rel is Rel.NE for c in component):
                expected_features.add("fm:diseq_split")
            if not fm._is_satisfiable_uncached(component):
                expected_features.add("fm:unsat")
                break
            expected_features.add("fm:sat")
        fm.clear_caches()
        with COVERAGE.unit() as cold:
            assert fm.is_satisfiable(constraints) == expected
        assert cold.features() == tuple(sorted(expected_features))
        before = COUNTERS.snapshot()
        with COVERAGE.unit() as warm:
            assert fm.is_satisfiable(constraints) == expected
        assert warm.features() == cold.features()
        delta = COUNTERS.since(before)
        assert delta["fm_sat_hits"] == delta["fm_sat_misses"] == 0  # system hit
        fm.clear_caches()
        COVERAGE.enabled = False
        try:
            assert fm.is_satisfiable(constraints) == expected
        finally:
            COVERAGE.enabled = True
        with COVERAGE.unit() as replayed:
            assert fm.is_satisfiable(constraints) == expected
        assert replayed.features() == cold.features()

    def test_system_memo_is_bounded(self):
        fm.clear_caches()
        x = var("x")
        for k in range(fm._SYSTEM_SAT_CACHE_LIMIT + 10):
            fm.is_satisfiable([Constraint(x - k, Rel.LE)])
        assert 0 < len(fm._SYSTEM_SAT_CACHE) <= fm._SYSTEM_SAT_CACHE_LIMIT

    def test_projection_cache_counts_hits(self):
        fm.clear_caches()
        x = var("x")
        system = [Constraint(x - 1, Rel.LE)]
        before = COUNTERS.snapshot()
        fm.project_components(system, {"x"})
        fm.project_components(system, {"x"})
        delta = COUNTERS.since(before)
        assert delta["fm_proj_misses"] == 1
        assert delta["fm_proj_hits"] == 1


# ----------------------------------------------------------------------
# successor-path memos: compiled conditions, opening reuse
# ----------------------------------------------------------------------

C = id_var("c")


def _atoms():
    ids = st.sampled_from(IDS)
    nums = st.sampled_from(NUMS)
    small = st.integers(min_value=-3, max_value=3)
    return st.one_of(
        st.builds(Eq, ids, ids),
        st.builds(lambda u: Eq(u, NULL_TERM), ids),
        st.builds(lambda u, n, v: RelationAtom("F", (u, n, v)), ids, nums, ids),
        st.builds(lambda u, n: RelationAtom("H", (u, n)), ids, nums),
        st.builds(
            lambda n, rel, k: ArithAtom(compare(var(n), rel, linconst(k))),
            nums,
            st.sampled_from([Rel.LE, Rel.LT, Rel.EQ, Rel.NE]),
            small,
        ),
        st.builds(lambda n, k: Eq(n, Const.of(k)), nums, small),
    )


@st.composite
def conditions(draw):
    """Random conditions over the test schema; optionally under a
    positive ∃ whose variable anchors a row (so it is not eliminated)."""
    body = draw(
        st.recursive(
            _atoms(),
            lambda inner: st.one_of(
                st.builds(Not, inner),
                st.builds(lambda a, b: And(a, b), inner, inner),
                st.builds(lambda a, b: Or(a, b), inner, inner),
            ),
            max_leaves=4,
        )
    )
    if draw(st.booleans()):
        witness = RelationAtom("F", (C, draw(st.sampled_from(NUMS)), draw(st.sampled_from(IDS))))
        body = Exists((C,), And(witness, body))
    return body


def _apply_condition_oracle(store, condition):
    """``apply_condition`` as it was before compile-once conditions and
    the single-branch dedup skip: re-derives the NNF on every call and
    keys every branch."""
    condition = eliminate_single_atom_exists(condition)
    bound, matrix = pull_exists(condition)
    if bound:
        scratch = store.copy()
        saved = {variable: scratch._binding.get(variable) for variable in bound}
        for variable in bound:
            scratch.rebind_fresh(variable)
        for refined in _apply_condition_oracle(scratch, matrix):
            for variable, old in saved.items():
                if old is None:
                    refined._binding.pop(variable, None)
                else:
                    refined._binding[variable] = old
            refined._canon_cache = None
            yield refined
        return
    seen_keys: set = set()
    for branch in _apply_nnf(store.copy(), nnf_condition(matrix)):
        if branch.is_consistent():
            key = branch.canonical_key()
            if key not in seen_keys:
                seen_keys.add(key)
                yield branch


def _per_guess_opening(vass, state):
    """``TaskVASS._opening_transitions`` as it was before opening reuse:
    a fresh pinned copy and a fresh Büchi step per (β, outcome) guess.
    Records the largest number of guesses one pre-store had."""
    for child in vass.task.children:
        if state.status_of(child.name) != INIT:
            continue
        ref = labels.opening(child.name)
        for pre_store in itertools.islice(
            apply_condition(state.store, child.opening.pre),
            vass.config.max_condition_branches,
        ):
            input_store, input_key = vass.engine.make_child_input(pre_store, child)
            guesses = 0
            for beta in vass.engine.compiled.betas(child.name):
                summary = vass.engine.summary(child.name, input_store, beta)
                outcomes = [("out", k) for k in sorted(summary.outputs, key=repr)]
                if summary.nonreturning:
                    outcomes.append(BOT)
                for outcome in outcomes:
                    guesses += 1
                    pinned = pre_store.copy()
                    for child_var, parent_var in child.opening.input_map.items():
                        pinned.pin(
                            ("child", child.name, child_var.name),
                            pinned.node_of(parent_var),
                        )
                    status = ("active", frozenset(beta.items()), outcome, input_key)
                    o_bar = state.with_status(child.name, status)
                    for transition in vass.automaton.successors(state.q):
                        for refined in vass._match_letter(
                            state, pinned, ref, transition, beta
                        ):
                            successor = SymState(
                                store=refined,
                                q=transition.target,
                                o_bar=o_bar,
                                ib=state.ib,
                                service=ref,
                            )
                            detail = "⊥" if outcome == BOT else "returns"
                            yield {}, successor, StepTag(vass.task.name, ref, detail)
            _GUESSES.append(guesses)


_GUESSES: list[int] = []


class TestSuccessorPathParity:
    @given(op_sequences(), conditions())
    @example(  # one branch, arithmetically inconsistent: nothing to yield
        [("num_le", IDS[0], IDS[0], NUMS[0], -3, "F")],
        Not(ArithAtom(compare(var(NUMS[0]), Rel.LE, linconst(2)))),
    )
    @settings(max_examples=200, deadline=None)
    def test_apply_condition_equals_per_call_compilation(self, ops, condition):
        store = ConstraintStore(SCHEMA)
        if not apply_ops(store, ops):
            return
        before = store.canonical_key()
        expected = [b.canonical_key() for b in _apply_condition_oracle(store, condition)]
        clear_canonical_caches()
        cold = [b.canonical_key() for b in apply_condition(store, condition)]
        warm = [b.canonical_key() for b in apply_condition(store, condition)]
        assert cold == warm == expected
        fresh = store.copy()
        fresh._canon_cache = None
        assert fresh.canonical_key() == before  # the input is not consumed

    @pytest.mark.parametrize(
        "name",
        ["order_fulfillment_n2::order_row_rederived", "procurement_chain::signatures_are_leveled"],
    )
    def test_opening_reuse_equals_per_guess_loop(self, name, monkeypatch):
        job = _GALLERY_JOBS[name]
        real = TaskVASS.successor_states
        compared = []

        def checked(self, state, vector):
            got = list(real(self, state, vector))
            self._opening_transitions = types.MethodType(_per_guess_opening, self)
            try:
                want = list(real(self, state, vector))
            finally:
                del self._opening_transitions
            assert [(d, s.key, t) for d, s, t in got] == [
                (d, s.key, t) for d, s, t in want
            ]
            compared.append(len(got))
            yield from got

        _GUESSES.clear()
        monkeypatch.setattr(TaskVASS, "successor_states", checked)
        result = Verifier(job.has, job.config).verify(job.prop)
        assert ("holds" if result.holds else "violated") == job.expected_status
        assert compared and max(_GUESSES) >= 2

    def test_clear_hooks_drop_the_new_memos(self):
        store = ConstraintStore(SCHEMA)
        list(apply_condition(store, Eq(IDS[0], IDS[1])))
        fm.is_satisfiable([Constraint(var("x") - 1, Rel.LE)])
        assert apply_module._COMPILED and fm._SYSTEM_SAT_CACHE
        fm.clear_caches()
        clear_canonical_caches()
        assert not apply_module._COMPILED and not fm._SYSTEM_SAT_CACHE


_GALLERY_JOBS = {
    job.name: job
    for job in directory_jobs(gallery_dir()) + directory_jobs(families_dir())
    if "fuzzed" not in job.name
}


# ----------------------------------------------------------------------
# verifier-level cache invisibility
# ----------------------------------------------------------------------


def _semantic_fingerprint(result):
    return (
        result.holds,
        result.witness_kind,
        [repr(step) for step in result.witness],
        result.loop_start,
        result.stats.km_nodes,
        result.stats.summaries,
    )


class TestVerifierCacheInvisibility:
    def test_successor_memo_is_byte_identical(self):
        spec = table1_workload(
            SchemaClass.CYCLIC, depth=2, with_sets=True, violated=True
        )
        with_memo = Verifier(
            spec.has, VerifierConfig(km_budget=60_000)
        ).verify(spec.prop)
        without_memo = Verifier(
            spec.has, VerifierConfig(km_budget=60_000, successor_memo_limit=0)
        ).verify(spec.prop)
        assert _semantic_fingerprint(with_memo) == _semantic_fingerprint(
            without_memo
        )
        assert with_memo.holds == spec.expected_holds

    def test_frontier_orders_agree_on_the_verdict(self):
        spec = table1_workload(
            SchemaClass.ACYCLIC, depth=2, with_sets=True, violated=True
        )
        verdicts = {}
        for order in ("lifo", "fifo", "covering"):
            result = Verifier(
                spec.has, VerifierConfig(km_budget=60_000, km_order=order)
            ).verify(spec.prop)
            verdicts[order] = result.holds
        assert verdicts == {order: spec.expected_holds for order in verdicts}

    def test_run_is_hash_seed_independent(self):
        """The search is reproducible across processes: verdict, witness,
        and node counts must not depend on PYTHONHASHSEED (set/frozenset
        iteration orders).  Historically the automaton tableau, store
        absorption, and FM elimination each leaked hash order into the
        exploration; this pins the fix."""
        import subprocess
        import sys

        script = (
            "import json\n"
            "from repro.examples.travel import travel_lite, "
            "discount_policy_property_lite\n"
            "from repro.verifier import Verifier, VerifierConfig\n"
            "has = travel_lite(False)\n"
            "r = Verifier(has, VerifierConfig(km_budget=60000))"
            ".verify(discount_policy_property_lite(has))\n"
            "print(json.dumps([r.holds, r.witness_kind, "
            "[repr(s) for s in r.witness], r.stats.km_nodes, "
            "r.stats.summaries]))\n"
        )
        outputs = set()
        for seed in ("0", "1", "4242"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={
                    "PYTHONHASHSEED": seed,
                    "PYTHONPATH": "src",
                },
                cwd=str(__import__("pathlib").Path(__file__).parent.parent),
                check=True,
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1, f"hash-seed-dependent outcomes: {outputs}"

    def test_budget_abort_does_not_poison_summary_memo(self):
        """A BudgetExceeded raised mid-summary must not leave the empty
        placeholder memoized: the memo outlives the verify() call, and a
        truncated summary would silently drop child behaviors from a
        later run on the same Verifier."""
        import pytest

        from repro.errors import BudgetExceeded

        spec = table1_workload(
            SchemaClass.ACYCLIC, depth=2, with_sets=True, violated=True
        )
        verifier = Verifier(spec.has, VerifierConfig(km_budget=3))
        with pytest.raises(BudgetExceeded):
            verifier.verify(spec.prop)
        for (task, _input_key, _beta), summary in verifier._summaries.items():
            assert summary.km_nodes > 0, (
                f"truncated placeholder summary for {task!r} survived the abort"
            )
        verifier.config = VerifierConfig(km_budget=60_000)
        result = verifier.verify(spec.prop)
        assert result.holds == spec.expected_holds

    def test_summaries_reused_across_properties(self):
        """R_T summaries persist on the Verifier across verify() calls:
        re-checking a property whose child specs were already summarized
        recomputes no summaries (the β key determines B(T, β) exactly,
        so the reuse is sound across property automata sharing a task)."""
        spec = table1_workload(SchemaClass.ACYCLIC, depth=2, with_sets=True)
        verifier = Verifier(spec.has, VerifierConfig(km_budget=60_000))
        first = verifier.verify(spec.prop)
        assert first.stats.summaries > 0
        second = verifier.verify(spec.prop)
        assert second.stats.summaries == 0
        assert second.stats.summary_hits > 0
        assert first.holds == second.holds


# ----------------------------------------------------------------------
# config serialization stability
# ----------------------------------------------------------------------


class TestConfigKeyStability:
    def test_new_knobs_omitted_at_defaults(self):
        data = to_dict(VerifierConfig())
        assert "km_order" not in data
        assert "successor_memo_limit" not in data

    def test_new_knobs_serialized_when_set(self):
        config = VerifierConfig(km_order="covering", successor_memo_limit=0)
        data = to_dict(config)
        assert data["km_order"] == "covering"
        assert data["successor_memo_limit"] == 0
        assert from_dict(data) == config

    def test_default_roundtrip(self):
        assert from_dict(to_dict(VerifierConfig())) == VerifierConfig()


# ----------------------------------------------------------------------
# the bench harness
# ----------------------------------------------------------------------


class TestBenchHarness:
    def test_family_names_are_stable(self):
        assert set(family_names()) >= {"table1", "table2", "travel-lite"}

    def test_unknown_family_raises(self):
        try:
            run_family("no-such-family")
        except KeyError as exc:
            assert "no-such-family" in str(exc)
        else:
            raise AssertionError("expected KeyError")

    def test_record_and_load_roundtrip(self, tmp_path):
        paths = record_families(
            tmp_path, families=["travel-lite"], reps=1, log=lambda _line: None
        )
        assert [p.name for p in paths] == ["BENCH_travel-lite.json"]
        record = load_record(paths[0])
        assert record["family"] == "travel-lite"
        assert record["deterministic"] is True
        assert record["wall_seconds"] > 0
        assert record["km_nodes"] > 0
        statuses = {job["status"] for job in record["jobs"]}
        assert statuses == {"violated", "holds"}
        assert set(record["rates"]) == set(PerfCounters.rates({}).keys())

    def test_compare_flags_only_regressions(self):
        current = {
            "family": "f",
            "deterministic": True,
            "wall_seconds": 1.0,
            "km_nodes": 10,
            "jobs": [{"name": "j", "status": "holds", "km_nodes": 10}],
        }
        same = dict(current)
        regressions, drifts, _notes = compare_records(current, same)
        assert regressions == [] and drifts == []
        fast_baseline = dict(current, wall_seconds=0.5)
        regressions, drifts, _notes = compare_records(current, fast_baseline)
        assert len(regressions) == 1 and "×2.00" in regressions[0]
        assert drifts == []
        # within threshold: not a regression
        close_baseline = dict(current, wall_seconds=0.9)
        regressions, drifts, _notes = compare_records(current, close_baseline)
        assert regressions == [] and drifts == []
        # verdict drift on a deterministic family is semantic, not perf
        drifted = dict(
            current,
            jobs=[{"name": "j", "status": "violated", "km_nodes": 10}],
        )
        regressions, drifts, _notes = compare_records(current, drifted)
        assert regressions == []
        assert any("fingerprint" in line for line in drifts)

    def test_compare_directories_soft_on_missing_baseline(self, tmp_path):
        current_dir = tmp_path / "current"
        baseline_dir = tmp_path / "baseline"
        current_dir.mkdir()
        baseline_dir.mkdir()
        record = {
            "schema_version": 1,
            "family": "f",
            "deterministic": True,
            "wall_seconds": 1.0,
            "km_nodes": 10,
            "jobs": [],
        }
        (current_dir / "BENCH_f.json").write_text(json.dumps(record))
        regressions, drifts, notes = compare_directories(
            current_dir, baseline_dir
        )
        assert regressions == [] and drifts == []
        assert any("no baseline" in note for note in notes)

    def test_tracked_baselines_load(self):
        """The baselines committed under benchmarks/baselines/ stay
        readable by the current schema."""
        from pathlib import Path

        baseline_dir = Path(__file__).resolve().parent.parent / (
            "benchmarks/baselines"
        )
        records = sorted(baseline_dir.glob("BENCH_*.json"))
        assert records, "tracked baselines missing"
        for path in records:
            record = load_record(path)
            assert record["family"] in family_names()

    def test_compare_loads_retired_counter(self, tmp_path, capsys):
        """The tracked baselines still carry ``constraint_canon_*``, a
        counter retired from ``COUNTERS`` with the per-constraint string
        memo; ``bench --compare`` loads and compares them unchanged."""
        from pathlib import Path

        from repro.service.cli import main

        retired = {"constraint_canon_hits", "constraint_canon_misses"}
        assert not retired & set(COUNTERS.snapshot())
        baseline_dir = Path(__file__).resolve().parent.parent / (
            "benchmarks/baselines"
        )
        baseline = baseline_dir / "BENCH_table1.json"
        counters = load_record(baseline)["counters"]
        assert retired <= set(counters)
        assert "constraint_canon" not in PerfCounters.rates(counters)
        current_dir = tmp_path / "records"
        current_dir.mkdir()
        (current_dir / baseline.name).write_text(baseline.read_text())
        code = main(
            ["bench", "--compare", str(baseline_dir), "--out", str(current_dir)]
        )
        assert code == 0
        assert "table1" in capsys.readouterr().out


class TestBenchCLI:
    def test_record_then_compare_exit_codes(self, tmp_path, capsys):
        from repro.service.cli import main

        out_dir = tmp_path / "records"
        code = main(
            [
                "bench",
                "--record",
                "--families",
                "travel-lite",
                "--reps",
                "1",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "BENCH_travel-lite.json").exists()
        # compare against itself: no regression
        code = main(
            ["bench", "--compare", str(out_dir), "--out", str(out_dir)]
        )
        assert code == 0
        # halve the baseline wall → synthetic >15% regression → exit 3
        baseline_dir = tmp_path / "baseline"
        baseline_dir.mkdir()
        record = json.loads((out_dir / "BENCH_travel-lite.json").read_text())
        record["wall_seconds"] = record["wall_seconds"] / 4
        (baseline_dir / "BENCH_travel-lite.json").write_text(json.dumps(record))
        code = main(
            ["bench", "--compare", str(baseline_dir), "--out", str(out_dir)]
        )
        assert code == 3
        output = capsys.readouterr().out
        assert "REGRESSION" in output
        # verdict drift in the baseline → exit 4 (semantic, not perf)
        drift_dir = tmp_path / "drift-baseline"
        drift_dir.mkdir()
        drifted = json.loads((out_dir / "BENCH_travel-lite.json").read_text())
        drifted["jobs"] = [
            dict(job, status="holds") for job in drifted["jobs"]
        ]
        (drift_dir / "BENCH_travel-lite.json").write_text(json.dumps(drifted))
        code = main(
            ["bench", "--compare", str(drift_dir), "--out", str(out_dir)]
        )
        assert code == 4
        assert "SEMANTIC DRIFT" in capsys.readouterr().out

    def test_positional_family_is_honored(self, tmp_path):
        from repro.service.cli import main

        out_dir = tmp_path / "records"
        code = main(
            [
                "bench",
                "travel-lite",
                "--record",
                "--reps",
                "1",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        assert sorted(p.name for p in out_dir.glob("BENCH_*.json")) == [
            "BENCH_travel-lite.json"
        ]
