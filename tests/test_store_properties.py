"""Property-based soundness checks for the store's projection operations.

``restrict`` implements τ'|x̄_in (the symbolic transition's persistence
step) and ``absorb`` implements child-I/O fact transfer; together they are
the data-flow backbone of the verifier.  These tests check, over random
assertion sequences, that projection never *loses* facts about kept
variables and never *invents* facts about dropped ones.  The last class
checks that the integer canonical form of a constraint inside
``canonical_key`` partitions constraints exactly as the repr-based
canonical strings it replaced.
"""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from repro.arith.constraints import Constraint, Rel
from repro.arith.linexpr import LinExpr
from repro.database.schema import DatabaseSchema, Relation, foreign_key, numeric
from repro.logic.terms import id_var, num_var
from repro.symbolic.nodes import Sort, ValueNode
from repro.symbolic.store import ConstraintStore, Inconsistent, _constraint_key

SCHEMA = DatabaseSchema(
    (
        Relation("F", (numeric("price"), foreign_key("hotel", "H"))),
        Relation("H", (numeric("rate"),)),
    )
)

IDS = [id_var(n) for n in ("u", "v", "w")]
NUMS = [num_var(n) for n in ("a", "b")]


@st.composite
def op_sequences(draw):
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(
            st.sampled_from(
                ["eq", "neq", "null", "anchor", "nav_eq", "num_le", "num_eq", "const"]
            )
        )
        ops.append(
            (
                kind,
                draw(st.sampled_from(IDS)),
                draw(st.sampled_from(IDS)),
                draw(st.sampled_from(NUMS)),
                draw(st.integers(min_value=-3, max_value=3)),
                draw(st.sampled_from(["F", "H"])),
            )
        )
    return ops


def apply_ops(store: ConstraintStore, ops) -> bool:
    """Returns False when the sequence was inconsistent (test skipped)."""
    try:
        for kind, x, y, n, k, rel in ops:
            if kind == "eq":
                store.assert_eq(store.node_of(x), store.node_of(y))
            elif kind == "neq":
                store.assert_neq(store.node_of(x), store.node_of(y))
            elif kind == "null":
                store.assert_null(store.node_of(x))
            elif kind == "anchor":
                store.assert_anchor(store.node_of(x), rel)
            elif kind == "nav_eq":
                store.assert_anchor(store.node_of(x), "F")
                price = store.nav(store.node_of(x), "price")
                store.assert_eq(price, store.node_of(n))
            elif kind == "num_le":
                store.add_linear(LinExpr({store.node_of(n): 1}, -k), Rel.LE)
            elif kind == "num_eq":
                store.add_linear(LinExpr({store.node_of(n): 1}, -k), Rel.EQ)
            elif kind == "const":
                store.const(k)
    except Inconsistent:
        return False
    return store.is_consistent()


class TestRestrictSoundness:
    @given(op_sequences())
    @settings(max_examples=120, deadline=None)
    def test_kept_id_facts_survive(self, ops):
        """Definite equal/unequal verdicts between kept ID variables are
        preserved by restrict (no fact loss on the projection)."""
        store = ConstraintStore(SCHEMA)
        if not apply_ops(store, ops):
            return
        keep = [IDS[0], IDS[1]]
        before = store.equal(store.node_of(keep[0]), store.node_of(keep[1]))
        null_before = [store.null_status(store.node_of(v)) for v in keep]
        anchor_before = [store.anchor_of(store.node_of(v)) for v in keep]
        restricted = store.restrict(keep)
        assert restricted.is_consistent()
        after = restricted.equal(
            restricted.node_of(keep[0]), restricted.node_of(keep[1])
        )
        if before is not None:
            assert after == before
        for variable, null_status, anchor in zip(keep, null_before, anchor_before):
            node = restricted.node_of(variable)
            if null_status is not None:
                assert restricted.null_status(node) == null_status
            if anchor is not None:
                assert restricted.anchor_of(node) == anchor

    @given(op_sequences())
    @settings(max_examples=120, deadline=None)
    def test_dropped_variables_are_fresh(self, ops):
        """After restrict, dropped variables carry no constraints."""
        store = ConstraintStore(SCHEMA)
        if not apply_ops(store, ops):
            return
        restricted = store.restrict([IDS[0]])
        dropped = restricted.node_of(IDS[2])
        assert restricted.null_status(dropped) is None
        assert restricted.anchor_of(dropped) is None
        assert restricted.equal(dropped, restricted.node_of(IDS[0])) is None

    @given(op_sequences())
    @settings(max_examples=100, deadline=None)
    def test_numeric_implications_survive(self, ops):
        """Definite numeric verdicts against constants are preserved for a
        kept numeric variable."""
        store = ConstraintStore(SCHEMA)
        if not apply_ops(store, ops):
            return
        target = NUMS[0]
        verdicts = {
            k: store.equal(store.node_of(target), store.const(k))
            for k in (-3, 0, 3)
        }
        restricted = store.restrict([target])
        assert restricted.is_consistent()
        if not restricted.approximate:
            for k, verdict in verdicts.items():
                if verdict is not None:
                    node = restricted.node_of(target)
                    assert restricted.equal(node, restricted.const(k)) == verdict


class TestAbsorbRoundTrip:
    @given(op_sequences())
    @settings(max_examples=100, deadline=None)
    def test_restrict_then_absorb_preserves_facts(self, ops):
        """restrict → absorb into a fresh store (the child-input path of the
        verifier) keeps every definite verdict about the transferred
        variables."""
        store = ConstraintStore(SCHEMA)
        if not apply_ops(store, ops):
            return
        keep = [IDS[0], IDS[1]]
        restricted = store.restrict(keep)
        target = ConstraintStore(SCHEMA)
        fresh_names = {keep[0]: id_var("c0"), keep[1]: id_var("c1")}
        try:
            target.absorb(restricted, fresh_names)
        except Inconsistent:
            raise AssertionError("absorbing a consistent store must not fail")
        assert target.is_consistent()
        before = restricted.equal(
            restricted.node_of(keep[0]), restricted.node_of(keep[1])
        )
        after = target.equal(
            target.node_of(fresh_names[keep[0]]),
            target.node_of(fresh_names[keep[1]]),
        )
        if before is not None:
            assert after == before
        for variable in keep:
            node = restricted.node_of(variable)
            mapped = target.node_of(fresh_names[variable])
            if restricted.null_status(node) is not None:
                assert target.null_status(mapped) == restricted.null_status(node)
            if restricted.anchor_of(node) is not None:
                assert target.anchor_of(mapped) == restricted.anchor_of(node)

    @given(op_sequences())
    @settings(max_examples=80, deadline=None)
    def test_canonical_key_invariant_under_roundtrip(self, ops):
        """restrict is idempotent up to canonical keys."""
        store = ConstraintStore(SCHEMA)
        if not apply_ops(store, ops):
            return
        keep = [IDS[0], NUMS[0]]
        once = store.restrict(keep)
        twice = once.restrict(keep)
        assert once.canonical_key() == twice.canonical_key()


# ----------------------------------------------------------------------
# integer canonical form ≡ repr-based canonical strings
# ----------------------------------------------------------------------
UNKNOWNS = [ValueNode(serial, Sort.NUMERIC) for serial in (1, 2, 3)]
LABELS = [
    (("var", "a"),),
    (("var", "b"),),
    (("var", "a"), ("nav", "price")),
    (("pin", "child", "in"),),
]
RATIONALS = st.integers(min_value=-3, max_value=3) | st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)
SCALES = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)


def _oracle(constraint: Constraint, label_of) -> str:
    """The per-constraint canonical string ``canonical_key`` used before
    the integer form (kept here as the test oracle)."""
    return repr(constraint.rename(label_of).canonical())


@st.composite
def constraints(draw):
    coeffs = {u: draw(RATIONALS) for u in draw(st.sets(st.sampled_from(UNKNOWNS)))}
    return Constraint(LinExpr(coeffs, draw(RATIONALS)), draw(st.sampled_from(Rel)))


@st.composite
def label_maps(draw):
    """Each unknown gets a label, shares one with another unknown (its
    coefficients merge), or stays unlabeled (a node no path reaches)."""
    mapping = {}
    for unknown in UNKNOWNS:
        label = draw(st.sampled_from(LABELS + [None]))
        if label is not None:
            mapping[unknown] = label
    return mapping


@st.composite
def constraint_pairs(draw):
    first, first_labels = draw(constraints()), draw(label_maps())
    mode = draw(st.sampled_from(["independent", "scaled", "relabeled"]))
    if mode == "independent":
        return first, first_labels, draw(constraints()), draw(label_maps())
    if mode == "relabeled":
        return first, first_labels, first, draw(label_maps())
    scale = draw(SCALES)
    rel = first.rel if scale > 0 else first.rel.flip()
    return first, first_labels, Constraint(first.expr * scale, rel), first_labels


class TestIntegerCanonicalForm:
    @given(constraint_pairs())
    @settings(max_examples=400, deadline=None)
    def test_partition_matches_repr_oracle(self, pair):
        first, first_labels, second, second_labels = pair
        same_key = _constraint_key(first, first_labels) == _constraint_key(
            second, second_labels
        )
        same_oracle = _oracle(first, first_labels) == _oracle(second, second_labels)
        assert same_key == same_oracle

    @given(constraints(), label_maps(), SCALES)
    @settings(max_examples=200, deadline=None)
    def test_scaling_keeps_the_key(self, constraint, labels, scale):
        # a constraint without unknowns is not scaled (nor was its string)
        assume(not constraint.rename(labels).expr.is_constant)
        rel = constraint.rel if scale > 0 else constraint.rel.flip()
        scaled = Constraint(constraint.expr * scale, rel)
        assert _constraint_key(scaled, labels) == _constraint_key(constraint, labels)

    @given(constraints(), label_maps())
    @settings(max_examples=200, deadline=None)
    def test_parts_are_integers(self, constraint, labels):
        rel, terms, constant = _constraint_key(constraint, labels)
        assert isinstance(rel, str)
        if not terms:  # no unknowns: the constant as (numerator, denominator)
            constant = constant[0]
        for value in [coeff for _label, coeff in terms] + [constant]:
            assert type(value) is int

    def test_fractional_coefficients_key_equal(self):
        x = UNKNOWNS[0]
        labels = {x: LABELS[0]}
        half = Constraint(LinExpr({x: Fraction(1, 2)}, -1), Rel.LE)
        whole = Constraint(LinExpr({x: 1}, -2), Rel.LE)
        assert _constraint_key(half, labels) == _constraint_key(whole, labels)
        assert _constraint_key(whole, labels) == ("<=", ((LABELS[0], 1),), -2)
