import csv
import heapq
import io
import json
import math
import pathlib
import pickle
import random
import tempfile
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from wsnsec import sim, trust
from wsnsec.addressing import BROADCAST_NODE_ID, NodeAddress
from wsnsec.config import SimConfig, config_from_dict
from wsnsec.trust import (
    CSV_COLUMNS,
    RECORD_FIELDS,
    NeighborRecord,
    TrustTable,
    TrustTables,
    TrustWeights,
    compute_trust,
    csv_pieces,
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
        """Every float the division can give, -0.0 and NaN included, as each
        of the six ratios in turn: `compute_trust` clamps it as the oracle's
        `min(max(r, 0.0), 1.0)` does. Rows built directly may hold floats in
        the count fields; a denominator of 1.0 makes the ratio the float."""
        planted = [
            dict(ae_t1=1.0, ae_t2=1.0 - num), dict(pss_t1=1.0, pss_t2=1.0 - num),
            dict(crf=1.0, craf=num), dict(drf=1.0, draf=num),
            dict(npt=1.0, npc=num), dict(npr=1.0, pd=num),
        ]
        for fields_ in planted:
            record = NeighborRecord(**fields_)
            got = compute_trust(record, TrustWeights())
            want = oracles.trust_formula(record, TrustWeights())
            assert repr(got) == repr(want), fields_


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

    def test_unseen_neighbor_has_no_election_trust(self):
        table = TrustTable(observer=A)
        table.record(B, "packet-received")
        assert table.election_trust(C) == 0.0
        assert C not in table.rows

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

    def test_non_finite_energy_sample_refused(self):
        """NaN and infinite readings are refused and store nothing, so
        trust stays a number in [0, 1)."""
        table = TrustTable(observer=A)
        table.record(B, "energy-sample", 500.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                table.record(B, "energy-sample", bad)
            with pytest.raises(ValueError):
                table.record(C, "energy-sample", bad)
        assert (table.rows[B].ae_t1, table.rows[B].ae_t2) == (500.0, 500.0)
        assert table.rows[C]._energy_samples == 0
        table.record(C, "energy-sample", 5.0)
        for node in (B, C):
            assert 0.0 <= table.trust(node) < 1.0

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


ADDRESSES = st.builds(NodeAddress, st.integers(0, 2), st.integers(1, 6))
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
)
COUNTS = st.integers(0, 2**63)
RECORDS = st.builds(
    NeighborRecord,
    **{name: FLOATS if kind is float else COUNTS if kind is int else st.booleans()
       for name, kind in RECORD_FIELDS.items()},
)


def streamed(write):
    """The text `write` writes to an open text file."""
    buf = io.StringIO()
    write(buf)
    return buf.getvalue()


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
        Each table is built afresh from a generator, as `trust_csv` may be.
        The streamed writer writes the same text."""
        report = sim.run(config_from_dict(GOLDEN_CONFIGS["habitat_election"]))
        assert any(not stats.alive for stats in report.nodes.values())
        tables = report.trust_tables
        ids = [id(rec) for table in tables.values() for rec in table.rows.values()]
        assert len(set(ids)) < len(ids)  # some rows are shared
        want = reference_csv(tables[a] for a in sorted(tables))
        fresh = (
            (a, TrustTable(t.observer, t.weights, dict(t.rows))) for a, t in tables.items()
        )
        assert tables_to_csv(fresh) == tables_to_csv(tables.items())
        assert tables_to_csv((a, tables[a]) for a in sorted(tables)) == want
        assert report.trust_csv() == want
        assert streamed(report.write_trust_csv) == want

    def test_lone_table_matches_reference(self):
        rnd = random.Random(5)
        table = TrustTable(observer=A)
        for neighbor in (D, B, C):
            table.rows[neighbor] = random_valid_record(rnd)
        table.rows[NodeAddress(0, 9)] = table.rows[B]  # one row under two neighbors
        assert table.to_csv() == reference_csv([table])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_tables_match_reference(self, data):
        """Random ledgers, each shared by several observers, frozen copies
        and observers' own tables, with rows filed under several neighbors
        and in several tables, trust cached on some rows and not on others,
        and floats from the smallest subnormal to the largest finite: the
        text is the oracle's for the tables each observer reads, joined or
        streamed."""
        weights = data.draw(st.sampled_from([TrustWeights(), TrustWeights(*[0.1] * 6)]))
        pool = data.draw(st.lists(RECORDS, min_size=1, max_size=6))

        def rows():
            picks = data.draw(st.dictionaries(ADDRESSES, st.integers(0, len(pool) - 1)))
            return {n: pool[i] for n, i in picks.items()}

        ledgers = [
            TrustTable(NodeAddress(g, BROADCAST_NODE_ID), weights, rows())
            for g in range(data.draw(st.integers(1, 3)))
        ]
        own = [
            TrustTable(observer, weights, rows())
            for observer in data.draw(st.lists(ADDRESSES, max_size=3))
        ]
        frozen = [
            TrustTable(observer, weights, {
                n: replace(rec) for n, rec in ledger.rows.items() if n != observer
            })
            for observer, ledger in data.draw(
                st.lists(st.tuples(ADDRESSES, st.sampled_from(ledgers)), max_size=3)
            )
        ]
        for table in [*ledgers, *own, *frozen]:
            for neighbor in table.rows:
                if data.draw(st.booleans(), label="cache trust"):
                    table.trust(neighbor)
        sources = [st.tuples(ADDRESSES, st.sampled_from(ledgers))]
        if own or frozen:
            sources.append(st.sampled_from([(t.observer, t) for t in own + frozen]))
        pairs = data.draw(st.lists(st.one_of(*sources)))
        got = tables_to_csv(iter(pairs))

        def view(observer, table):
            if table.observer == observer:
                return table
            rows = {n: rec for n, rec in table.rows.items() if n != observer}
            return TrustTable(observer, table.weights, rows)

        assert got == reference_csv(view(*pair) for pair in pairs)
        assert streamed(lambda fh: fh.writelines(csv_pieces(iter(pairs)))) == got

    def test_csv_memory(self):
        """Two groups of 127 members, 3 frames: the joined text is made in
        one piece, below 1.5 times its length at its peak, and the streamed
        write holds under 1 MB. A text grown in a buffer and copied out
        peaked at 2.56 times its length."""
        report = sim.run(SimConfig(seed=7, node_count=254, group_count=2, sim_length=3))
        tracemalloc.start()
        try:
            text = report.trust_csv()
            joined = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text.splitlines()) == 1 + 2 * 127 * 126
        assert joined < 1.5 * len(text)
        with tempfile.TemporaryFile("w+", encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                report.write_trust_csv(fh)
                written = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            fh.seek(0)
            assert fh.read() == text
        assert written < 1_000_000


class TestTrustTables:
    def ledger_and_tables(self):
        ledger = TrustTable(NodeAddress(0, BROADCAST_NODE_ID))
        for subject in (A, B, C):
            ledger.record(subject, "packet-transmitted")
        dead = TrustTable(D, ledger.weights, {A: replace(ledger.rows[A])})
        return ledger, dead, TrustTables({A: ledger, B: ledger, D: dead})

    def test_views_built_when_read(self):
        """A member reads the ledger's row objects without its own row; a
        table filed under its own observer is read as it is."""
        ledger, dead, tables = self.ledger_and_tables()
        assert list(tables) == [A, B, D] and len(tables) == 3
        view = tables[A]
        assert (view.observer, list(view.rows)) == (A, [B, C])
        assert view.rows[B] is ledger.rows[B] and view.weights is ledger.weights
        assert tables[D] is dead
        assert dict(tables.items()) == {A: view, B: tables[B], D: dead}
        with pytest.raises(KeyError):
            tables[C]

    def test_equality_and_pickling(self):
        ledger, dead, tables = self.ledger_and_tables()
        _, _, other = self.ledger_and_tables()
        assert tables == other == dict(tables)
        other[A].rows[C].npt += 1  # the view holds the ledger's row
        assert tables != other
        back = pickle.loads(pickle.dumps(tables))
        assert back == tables and back.to_csv() == tables.to_csv()
        assert back[A].rows[C] is back[B].rows[C]  # one ledger, still shared


# Few distinct values, so trusts tie: cached ones, and stale rows whose
# counters give equal trusts. Suspicious rows all read 0.0.
_CACHED = st.sampled_from([0.0, 0.25, 0.5, 0.75, 6 / 7])
_FEW = st.integers(0, 3)
_SUBJECT = st.tuples(st.integers(0, 2), st.integers(0, 255))


@st.composite
def _ledger_rows(draw):
    """0, 1 or 2 rows, or many."""
    subjects = draw(st.one_of(
        st.lists(_SUBJECT, max_size=2, unique=True),
        st.lists(_SUBJECT, min_size=3, max_size=40, unique=True),
    ))
    rows = {}
    for gid, nid in subjects:
        rec = NeighborRecord(
            npt=draw(_FEW), npr=draw(_FEW), crf=draw(_FEW), drf=draw(_FEW),
            suspicious=draw(st.booleans()),
        )
        rec.npc, rec.pd = min(draw(_FEW), rec.npt), min(draw(_FEW), rec.npr)
        rec.craf, rec.draf = min(draw(_FEW), rec.crf), min(draw(_FEW), rec.drf)
        rec._trust = draw(st.one_of(st.none(), _CACHED))
        rows[NodeAddress(gid, nid)] = rec
    return rows


def _ledger(rows):
    """A table over copies of `rows`, each with its cached trust or None."""
    return TrustTable(NodeAddress(0, BROADCAST_NODE_ID), TrustWeights(),
                      {s: replace(rec) for s, rec in rows.items()})


@settings(max_examples=300, deadline=None)
@given(_ledger_rows())
def test_lowest_two_is_the_two_smallest_pairs(rows):
    """`lowest_two` gives what `heapq.nsmallest` gives over every subject's
    `election_trust`, padded with `(None, None)`: ties break toward the
    lower address, suspicious rows read 0.0, and each stale trust is
    computed once, through `compute_trust`, and kept on its row."""
    got_table, want_table = _ledger(rows), _ledger(rows)
    calls = [0]
    real = trust.compute_trust

    def counting(*args):
        calls[0] += 1
        return real(*args)

    trust.compute_trust = counting
    try:
        got = got_table.lowest_two()
        got_calls = calls[0]
        t = want_table
        want = (heapq.nsmallest(2, ((t.election_trust(s), s) for s in t.rows))
                + [(None, None)] * 2)[:2]
        want_calls = calls[0] - got_calls
    finally:
        trust.compute_trust = real
    assert got == tuple(want)
    assert got_calls == want_calls
    assert [r._trust for r in got_table.rows.values()] == [
        r._trust for r in want_table.rows.values()
    ]


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

    def test_head_outside_the_group_rejected(self):
        with pytest.raises(ValueError, match="current head does not belong to the group"):
            run_election({A, B}, {}, current_head=C)

    def test_members_without_a_table_or_a_candidate_do_not_vote(self):
        """B has no table, and C's table holds only an off-group node and
        C itself, so A's vote alone decides: B wins and nobody is vice."""
        outsider = NodeAddress(1, 1)
        tables = {
            A: table_with_trust(A, {B: 0.9, C: 0.5}),
            C: table_with_trust(C, {outsider: 0.9, C: 0.9}),
        }
        assert run_election({A, B, C}, tables, current_head=A) == (B, None)

    def test_incumbent_kept_when_nobody_nominates(self):
        tables = {A: TrustTable(observer=A), B: table_with_trust(B, {NodeAddress(1, 1): 0.9})}
        assert run_election({A, B, C}, tables, current_head=C) == (C, None)
