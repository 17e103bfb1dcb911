import pytest

from klcells.basedring import (
    BasedRing,
    RingError,
    RingFormatError,
    RingViolation,
    TruncationError,
    cells_of,
    ring_from_text,
    ring_to_text,
    subquotient_qn,
    subring_an,
    verify,
)


def as_dict(ring, x, y):
    return {ring.labels[z]: v for z, v in enumerate(ring.product(x, y)) if v}


def test_q5_table_is_the_reference_one():
    ring = subquotient_qn(5)
    assert ring.labels == ("e", "s", "sts")
    assert as_dict(ring, "s", "s") == {"s": 2}
    assert as_dict(ring, "s", "sts") == {"sts": 2}
    assert as_dict(ring, "sts", "s") == {"sts": 2}
    assert as_dict(ring, "sts", "sts") == {"s": 2, "sts": 2}
    assert as_dict(ring, "e", "sts") == {"sts": 1}


def test_q4_table_is_the_reference_one():
    ring = subquotient_qn(4)
    assert ring.labels == ("e", "s", "sts")
    assert as_dict(ring, "sts", "sts") == {"s": 2}
    assert as_dict(ring, "s", "sts") == {"sts": 2}


def test_q6_table_is_the_reference_one():
    ring = subquotient_qn(6)
    assert ring.labels == ("e", "s", "sts", "ststs")
    assert as_dict(ring, "sts", "sts") == {"s": 2, "sts": 2, "ststs": 2}
    assert as_dict(ring, "ststs", "ststs") == {"s": 2}
    assert as_dict(ring, "sts", "ststs") == {"sts": 2}
    assert as_dict(ring, "ststs", "sts") == {"sts": 2}
    assert as_dict(ring, "s", "ststs") == {"ststs": 2}


def test_subring_an():
    ring = subring_an(4)
    assert ring.labels == ("e", "s")
    assert as_dict(ring, "s", "s") == {"s": 2}
    assert as_dict(ring, "e", "s") == {"s": 1}
    tables = {subring_an(n).c for n in range(3, 9)}
    assert len(tables) == 1  # n-independent


def test_q3_equals_a3():
    assert subquotient_qn(3).labels == subring_an(3).labels
    assert subquotient_qn(3).c == subring_an(3).c


@pytest.mark.parametrize("n", range(3, 9))
def test_basis_size_formula(n):
    ring = subquotient_qn(n)
    assert ring.size == 1 + (n - 1 + 1) // 2
    assert verify(ring).ok


def _q5_with_s_sts_decremented():
    ring = subquotient_qn(5)
    table = [[[list(row) for row in plane] for plane in ring.c][x] for x in range(3)]
    table[1][2][2] -= 1  # decrement one coefficient of s*sts
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in table)
    return BasedRing(ring.labels, frozen, ring.identity)


def test_verify_flags_corruption():
    report = verify(_q5_with_s_sts_decremented())
    assert not report.ok
    assert any(v.axiom == "associativity" for v in report.violations)
    assert any(v.axiom == "anti-involution" for v in report.violations)
    assert all(v.witness for v in report.violations)
    assert "violation" in report.summary()


def test_verify_reports_every_violation_in_order():
    assert verify(_q5_with_s_sts_decremented()).violations == (
        RingViolation("associativity", (1, 1, 2, 2), "2 != 1"),
        RingViolation("associativity", (1, 2, 2, 1), "2 != 4"),
        RingViolation("associativity", (2, 1, 2, 1), "4 != 2"),
        RingViolation("associativity", (2, 1, 2, 2), "4 != 2"),
        RingViolation("associativity", (2, 2, 2, 2), "6 != 8"),
        RingViolation("anti-involution", (1, 2, 2), "1 != 2"),
        RingViolation("anti-involution", (2, 1, 2), "2 != 1"),
    )


def test_verify_accepts_a_decrement_that_happens_to_stay_a_ring():
    # dropping sts*sts from 2s+2sts to s+2sts yields a different but valid
    # based ring, so verify must accept it; the regression data, not the
    # axioms, are what pin the reference tables
    ring = subquotient_qn(5)
    table = [[[list(row) for row in plane] for plane in ring.c][x] for x in range(3)]
    table[2][2][1] -= 1
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in table)
    assert verify(BasedRing(ring.labels, frozen, ring.identity)).ok


def test_verify_flags_negative_entry():
    ring = subring_an(3)
    table = [[list(row) for row in plane] for plane in ring.c]
    table[1][1][0] = -1
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in table)
    report = verify(BasedRing(ring.labels, frozen, ring.identity))
    assert not report.ok
    assert any(v.axiom == "positivity" for v in report.violations)


def test_cells_of_subquotients():
    for n in (4, 5):
        cells = cells_of(subquotient_qn(n))
        assert {frozenset(c) for c in cells.two_sided} == {
            frozenset({"e"}),
            frozenset(subquotient_qn(n).labels) - {"e"},
        }
        e_cell = cells.cell_of("two_sided", "e")
        top = cells.cell_of("two_sided", "s")
        assert (e_cell, top) in cells.two_sided_leq
        assert (top, e_cell) not in cells.two_sided_leq
        # left, right and two-sided cells all agree here
        assert cells.left == cells.two_sided == cells.right
    an = cells_of(subring_an(5))
    assert an.two_sided == (("e",), ("s",))


def test_truncation_guard_raises_on_bad_span():
    # the span {e, sts} is not closed even modulo w0: sts*sts reaches s
    from klcells.basedring import restrict_constants
    from klcells.klring import structure_constants

    full = structure_constants(5)
    w0 = len(full.labels) - 1
    with pytest.raises(TruncationError):
        restrict_constants(full, [0, full.index("sts")], deletable=[w0])


def test_truncation_soundness_for_the_real_spans():
    # every product of two non-identity basis elements of Q_n stays inside
    # the span plus w0 before truncation
    from klcells.basedring import restrict_constants
    from klcells.klring import structure_constants

    for n in range(3, 9):
        full = structure_constants(n)
        keep = [0] + [
            i
            for i, el in enumerate(full.elements)
            if el.start == "s" and el.length % 2 == 1 and el.length < n
        ]
        ring = restrict_constants(full, keep, deletable=[len(full.labels) - 1])
        assert verify(ring).ok


def test_subquotient_rejects_small_n():
    with pytest.raises(ValueError):
        subquotient_qn(2)


def test_serialization_round_trip():
    for build in (lambda: subquotient_qn(5), lambda: subquotient_qn(6), lambda: subring_an(4)):
        ring = build()
        text = ring_to_text(ring)
        back = ring_from_text(text, name=ring.name)
        assert back.labels == ring.labels
        assert back.c == ring.c
        assert back.identity == ring.identity
        assert back.involution == ring.involution
        # serialization is stable
        assert ring_to_text(back) == text


def test_serialized_form_lists_positive_quadruples():
    text = ring_to_text(subring_an(3))
    lines = [line for line in text.splitlines() if line.startswith("c ")]
    assert "c s s s 2" in lines
    assert "c e s s 1" in lines
    assert all(int(line.split()[-1]) > 0 for line in lines)


def test_from_text_rejects_malformed_input():
    with pytest.raises(RingFormatError):
        ring_from_text("identity e\n")  # no labels
    with pytest.raises(RingFormatError):
        ring_from_text("labels e s\nidentity q\n")
    with pytest.raises(RingFormatError):
        ring_from_text("labels e s\nidentity e\nc e s s x\n")
    with pytest.raises(RingFormatError):
        ring_from_text("labels e s\nidentity e\nbogus 1\n")


def test_from_text_rejects_axiom_violations():
    # s*s = 3s + missing identity rows: fails the identity axiom
    text = "labels e s\nidentity e\nc s s s 3\n"
    with pytest.raises(RingError):
        ring_from_text(text)


def test_from_text_accepts_a_hand_written_ring():
    text = """
# tiny doubling ring
labels e g
identity e
c e e e 1
c e g g 1
c g e g 1
c g g g 2
"""
    ring = ring_from_text(text)
    assert ring.labels == ("e", "g")
    assert ring.product("g", "g") == (0, 2)
