import csv
import io
import json
import math
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from wsnsec import sim
from wsnsec.addressing import NodeAddress
from wsnsec.trust import (
    CSV_COLUMNS,
    RECORD_FIELDS,
    NeighborRecord,
    TrustTable,
    TrustWeights,
    _ratio,
    compute_trust,
    run_election,
    tables_to_csv,
)

GOLDEN_CONFIGS = json.loads(
    (pathlib.Path(__file__).parent / "vectors" / "sim_golden" / "configs.json").read_text()
)

A = NodeAddress(0, 1)
B = NodeAddress(0, 2)
C = NodeAddress(0, 3)
D = NodeAddress(0, 4)


def perfect_record() -> NeighborRecord:
    return NeighborRecord(
        ae_t1=100.0, ae_t2=100.0, pss_t1=1.0, pss_t2=1.0,
        crf=10, craf=10, drf=10, draf=10, npc=0, npt=10, pd=0, npr=10,
    )


def random_valid_record(rnd: random.Random) -> NeighborRecord:
    crf = rnd.randrange(0, 50)
    drf = rnd.randrange(0, 50)
    npt = rnd.randrange(0, 50)
    npr = rnd.randrange(0, 50)
    ae1 = rnd.uniform(0, 1000)
    return NeighborRecord(
        ae_t1=ae1,
        ae_t2=rnd.uniform(0, ae1),
        pss_t1=rnd.uniform(0.01, 1.0),
        pss_t2=rnd.uniform(0.01, 1.0),
        crf=crf, craf=rnd.randrange(0, crf + 1),
        drf=drf, draf=rnd.randrange(0, drf + 1),
        npt=npt, npc=rnd.randrange(0, npt + 1),
        npr=npr, pd=rnd.randrange(0, npr + 1),
        rc=rnd.uniform(0, 10),
    )


class TestComputeTrust:
    def test_perfect_forwarder_default_weights(self):
        # A1 = A2 = 0, A3..A6 = 1, weights 1/7 each: T = 4/7
        t = compute_trust(perfect_record(), TrustWeights())
        assert t == pytest.approx(4 / 7)
        assert f"{t:.4f}" == "0.5714"

    def test_total_dropper(self):
        rec = perfect_record()
        rec.craf = rec.draf = 0
        rec.pd = rec.npr
        # A3 = A4 = A6 = 0 leaves only the A1/A2/A5 terms
        assert compute_trust(rec, TrustWeights()) == pytest.approx(1 / 7)

    def test_zero_weights(self):
        zero = TrustWeights(0, 0, 0, 0, 0, 0)
        assert compute_trust(perfect_record(), zero) == 0.0

    def test_neutral_on_zero_denominators(self):
        # A fresh row: every ratio undefined, every term neutral = 1.
        assert compute_trust(NeighborRecord(), TrustWeights()) == pytest.approx(6 / 7)

    def test_rising_signal_clamped(self):
        rec = perfect_record()
        rec.pss_t1, rec.pss_t2 = 0.5, 0.9  # signal got stronger
        t = compute_trust(rec, TrustWeights())
        assert 0.0 <= t < 1.0
        assert t == pytest.approx(4 / 7)  # A2 clamps to 0, not negative

    def test_range_over_random_records(self):
        rnd = random.Random(4212)
        w = TrustWeights()
        for _ in range(5000):
            t = compute_trust(random_valid_record(rnd), w)
            assert 0.0 <= t < 1.0

    def test_deterministic(self):
        rnd = random.Random(8)
        rec = random_valid_record(rnd)
        w = TrustWeights()
        assert compute_trust(rec, w) == compute_trust(rec, w)

    def test_monotonic_in_drops_and_forwarding(self):
        rnd = random.Random(77)
        w = TrustWeights()
        for _ in range(500):
            rec = random_valid_record(rnd)
            t0 = compute_trust(rec, w)
            if rec.pd < rec.npr:
                rec.pd += 1
                assert compute_trust(rec, w) <= t0
                rec.pd -= 1
            if rec.draf < rec.drf:
                rec.draf += 1
                assert compute_trust(rec, w) >= t0


# Counts with zero and non-zero denominators, and a numerator that may
# exceed its denominator: a row built directly can forward more than it got.
_COUNTS = st.integers(0, 60)
# Samples that may rise between t1 and t2, so the drift ratios go negative,
# and a zero first sample.
_SAMPLES = st.one_of(st.just(0.0), st.floats(0.0, 1000.0))


@st.composite
def _records(draw):
    return NeighborRecord(
        ae_t1=draw(_SAMPLES), ae_t2=draw(_SAMPLES),
        pss_t1=draw(_SAMPLES), pss_t2=draw(_SAMPLES),
        crf=draw(_COUNTS), craf=draw(_COUNTS), drf=draw(_COUNTS), draf=draw(_COUNTS),
        npt=draw(_COUNTS), npc=draw(_COUNTS), npr=draw(_COUNTS), pd=draw(_COUNTS),
    )


@st.composite
def _weights(draw):
    # Six weights below 1/6 each always sum below 1.
    return TrustWeights(*(draw(st.floats(0.0, 0.166)) for _ in range(6)))


class TestTrustOracle:
    @settings(max_examples=300, deadline=None)
    @given(_records(), st.one_of(st.just(TrustWeights()), _weights()))
    def test_compute_trust_is_the_formula_bit_for_bit(self, record, weights):
        got, want = compute_trust(record, weights), oracles.trust_formula(record, weights)
        assert got == want and repr(got) == repr(want)

    @pytest.mark.parametrize(
        "num", [-0.0, 0.0, -1e-300, 0.5, 1.0, 1.5, math.inf, -math.inf, math.nan]
    )
    def test_ratio_clamps_as_min_and_max(self, num):
        """Every float the division can give, -0.0 and NaN included."""
        assert repr(_ratio(num, 1.0)) == repr(min(max(num, 0.0), 1.0))


class TestTrustWeights:
    def test_sum_must_stay_below_one(self):
        with pytest.raises(ValueError):
            TrustWeights(0.2, 0.2, 0.2, 0.2, 0.2, 0.2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TrustWeights(-0.1, 0.1, 0.1, 0.1, 0.1, 0.1)


class TestRecordEvents:
    def test_row_created_zeroed(self):
        table = TrustTable(observer=A)
        table.record(B, "data-received-for-forward")
        rec = table.rows[B]
        assert rec.drf == 1
        assert (rec.crf, rec.craf, rec.draf, rec.pd, rec.npt, rec.npr) == (0, 0, 0, 0, 0, 0)

    def test_single_counter_increment(self):
        table = TrustTable(observer=A)
        for _ in range(10):
            table.record(B, "packet-transmitted")
        assert table.rows[B].npt == 10

    def test_trust_kept_consistent(self):
        table = TrustTable(observer=A)
        table.record(B, "packet-received")
        assert table.trust(B) == compute_trust(table.rows[B], table.weights)
        before = table.trust(B)
        table.record(B, "packet-dropped")
        assert table.trust(B) == compute_trust(table.rows[B], table.weights) < before

    def test_energy_increase_flags_suspicious(self):
        table = TrustTable(observer=A)
        table.record(B, "energy-sample", 100.0)
        table.record(B, "energy-sample", 110.0)
        rec = table.rows[B]
        assert rec.suspicious
        assert rec.ae_t2 == 100.0  # the bogus sample was not stored
        assert table.election_trust(B) == 0.0
        assert table.trust(B) > 0.0  # the formula value itself is untouched

    def test_energy_samples_shift(self):
        table = TrustTable(observer=A)
        for v in (100.0, 90.0, 70.0):
            table.record(B, "energy-sample", v)
        rec = table.rows[B]
        assert (rec.ae_t1, rec.ae_t2) == (90.0, 70.0)

    def test_energy_sample_range(self):
        """A flat battery reads 0.0, which is a sample like any other; a
        negative reading and a missing one are refused and store nothing."""
        table = TrustTable(observer=A)
        table.record(B, "energy-sample", 0.0)
        table.record(C, "energy-sample", 5.0)
        table.record(C, "energy-sample", 0.0)
        assert (table.rows[B].ae_t1, table.rows[B].ae_t2) == (0.0, 0.0)
        assert (table.rows[C].ae_t1, table.rows[C].ae_t2) == (5.0, 0.0)
        assert not table.rows[C].suspicious
        for bad in (-1e-9, None):
            with pytest.raises(ValueError):
                table.record(C, "energy-sample", bad)
        assert (table.rows[C].ae_t1, table.rows[C].ae_t2) == (5.0, 0.0)

    def test_signal_sample_range(self):
        table = TrustTable(observer=A)
        with pytest.raises(ValueError):
            table.record(B, "signal-sample", 1.5)

    def test_counter_invariants_enforced(self):
        table = TrustTable(observer=A)
        with pytest.raises(ValueError):
            table.record(B, "data-forwarded")  # nothing received to forward
        with pytest.raises(ValueError):
            table.record(B, "packet-dropped")  # nothing received to drop

    def test_signal_samples_shift(self):
        """The first sample fills both slots; each later one shifts them."""
        table = TrustTable(observer=A)
        table.record(B, "signal-sample", 0.8)
        assert (table.rows[B].pss_t1, table.rows[B].pss_t2) == (0.8, 0.8)
        for v in (0.6, 0.5):
            table.record(B, "signal-sample", v)
        assert (table.rows[B].pss_t1, table.rows[B].pss_t2) == (0.6, 0.5)

    def test_collisions_bounded_by_transmissions(self):
        table = TrustTable(observer=A)
        with pytest.raises(ValueError):
            table.record(B, "collision")  # nothing transmitted to collide
        table.record(B, "packet-transmitted")
        table.record(B, "collision")
        with pytest.raises(ValueError):
            table.record(B, "collision")
        assert (table.rows[B].npc, table.rows[B].npt) == (1, 1)

    def test_control_forwards_bounded_by_receipts(self):
        table = TrustTable(observer=A)
        with pytest.raises(ValueError):
            table.record(B, "control-forwarded")  # nothing received to forward
        table.record(B, "control-received-for-forward")
        table.record(B, "control-forwarded")
        with pytest.raises(ValueError):
            table.record(B, "control-forwarded")
        assert (table.rows[B].craf, table.rows[B].crf) == (1, 1)

    def test_unknown_kind(self):
        table = TrustTable(observer=A)
        with pytest.raises(ValueError):
            table.record(B, "frobnicated")

    def test_csv_roundtrip_shape(self):
        table = TrustTable(observer=A)
        table.record(B, "packet-transmitted")
        table.record(C, "packet-received")
        text = table.to_csv()
        lines = text.strip().split("\n")
        assert lines[0].startswith("observer,neighbor,ae_t1")
        assert len(lines) == 3
        assert lines[1].split(",")[1] == str(B)


def reference_csv(tables):
    """The trust CSV written row by row, formatting every row it meets: the
    oracle for `tables_to_csv`, which formats each shared row once."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for table in tables:
        for neighbor in sorted(table.rows):
            rec = table.rows[neighbor]
            counters = [
                f"{getattr(rec, name):.9f}" if kind is float else int(getattr(rec, name))
                for name, kind in RECORD_FIELDS.items()
            ]
            trust = f"{table.trust(neighbor):.9f}"
            writer.writerow([str(table.observer), str(neighbor), *counters, trust])
    return buf.getvalue()


class TestTablesToCsv:
    def test_run_with_a_death_matches_reference(self):
        """Live views share the ledger's rows; the dead hold frozen copies.
        Each table is built afresh from a generator, as `trust_csv` may be."""
        report = sim.run(sim.config_from_dict(GOLDEN_CONFIGS["habitat_election"]))
        assert any(not stats.alive for stats in report.nodes.values())
        tables = report.trust_tables
        ids = [id(rec) for table in tables.values() for rec in table.rows.values()]
        assert len(set(ids)) < len(ids)  # some rows are shared
        want = reference_csv(tables[a] for a in sorted(tables))
        fresh = (TrustTable(t.observer, t.weights, dict(t.rows)) for t in tables.values())
        assert tables_to_csv(fresh) == tables_to_csv(tables.values())
        assert tables_to_csv(tables[a] for a in sorted(tables)) == want
        assert report.trust_csv() == want

    def test_lone_table_matches_reference(self):
        rnd = random.Random(5)
        table = TrustTable(observer=A)
        for neighbor in (D, B, C):
            table.rows[neighbor] = random_valid_record(rnd)
        table.rows[NodeAddress(0, 9)] = table.rows[B]  # one row under two neighbors
        assert table.to_csv() == reference_csv([table])


def table_with_trust(observer, values):
    """Build a table whose election trust for each neighbor approximates
    the requested value via the drop ratio."""
    table = TrustTable(observer=observer)
    for neighbor, target in values.items():
        rec = perfect_record()
        # scale A3..A6 terms down: use craf/drf manipulation
        rec.craf = round(rec.crf * target)
        rec.draf = round(rec.drf * target)
        rec.pd = rec.npr - round(rec.npr * target)
        rec.npc = rec.npt - round(rec.npt * target)
        table.rows[neighbor] = rec
    return table


class TestElection:
    def test_unanimous_winner(self):
        group = {A, B, C, D}
        tables = {
            B: table_with_trust(B, {A: 0.9, C: 0.5, D: 0.5}),
            C: table_with_trust(C, {A: 0.9, B: 0.5, D: 0.5}),
            D: table_with_trust(D, {A: 0.9, B: 0.5, C: 0.5}),
            A: table_with_trust(A, {B: 0.6, C: 0.5, D: 0.5}),
        }
        head, vice = run_election(group, tables, current_head=B)
        assert head == A
        assert vice == B  # A's vote went to B, the only other vote-getter

    def test_two_node_tie_breaks_low_address(self):
        x, y = NodeAddress(1, 5), NodeAddress(1, 9)
        tables = {
            x: table_with_trust(x, {y: 0.8}),
            y: table_with_trust(y, {x: 0.8}),
        }
        head, vice = run_election({x, y}, tables, current_head=x)
        assert head == x  # one vote each; lowest address wins
        assert vice == y

    def test_singleton_group(self):
        z = NodeAddress(2, 9)
        assert run_election({z}, {}, current_head=z) == (z, None)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            run_election(set(), {}, current_head=A)

    def test_zero_vote_node_never_wins(self):
        rnd = random.Random(5150)
        for _ in range(50):
            members = [NodeAddress(3, i + 1) for i in range(5)]
            tables = {}
            for m in members:
                values = {
                    n: rnd.uniform(0.1, 0.9) for n in members if n != m
                }
                tables[m] = table_with_trust(m, values)
            head, vice = run_election(members, tables, current_head=members[0])
            voted_for = set()
            for m in members:
                cands = [
                    (tables[m].election_trust(n), n) for n in tables[m].rows
                ]
                voted_for.add(min(cands, key=lambda c: (-c[0], c[1]))[1])
            assert head in voted_for
            if vice is not None:
                assert vice in voted_for

    def test_suspicious_node_gets_no_votes(self):
        members = [A, B, C]
        tables = {}
        for m in members:
            t = table_with_trust(m, {n: 0.7 for n in members if n != m})
            tables[m] = t
        # C is flagged in everyone's table
        for m in (A, B):
            tables[m].rows[C].suspicious = True
        head, _ = run_election(members, tables, current_head=A)
        assert head != C

    def test_degraded_delivery_loses_votes(self):
        # B and C identical except C drops more; nobody prefers C over B.
        members = [A, B, C]
        tables = {
            A: table_with_trust(A, {B: 0.9, C: 0.4}),
            B: table_with_trust(B, {A: 0.9, C: 0.4}),
            C: table_with_trust(C, {A: 0.9, B: 0.9}),
        }
        head, _ = run_election(members, tables, current_head=A)
        assert head != C
