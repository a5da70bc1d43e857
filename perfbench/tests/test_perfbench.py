"""Tests for the benchmark's own logic: percentiles with their counts,
self-time arithmetic, op-log determinism, failure accounting and the
scaling of times to the reference host speed."""

import pytest

from benchlib import live, oplog, spans, yardstick
from benchlib.live import Load, Outcomes, closed_loop_windows
from benchlib.stats import (
    Failures,
    beyond,
    fleet_failed_ratio,
    percentile,
    reference_figures,
    summarize_latencies,
)


# ------------------------------------------------------------ percentiles
def test_percentile_is_nearest_rank_with_count():
    values = list(range(1, 101))
    assert percentile(values, 50) == (50, 100)
    assert percentile(values, 99) == (99, 100)
    assert percentile(values, 100) == (100, 100)
    assert percentile([7.0], 99) == (7.0, 1)


def test_percentile_ignores_input_order():
    assert percentile([5, 1, 4, 2, 3], 50) == (3, 5)


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_beyond_counts_samples_past_the_percentile():
    assert beyond(1000, 99) == 10
    assert beyond(100, 99) == 1
    assert beyond(1, 99) == 0


def test_summary_states_count_and_tail():
    summary = summarize_latencies([float(v) for v in range(1, 1001)])
    assert summary["count"] == 1000
    assert summary["p50_ms"] == 500.0
    assert summary["p99_ms"] == 990.0
    assert summary["beyond_p99"] == 10
    assert summarize_latencies([]) is None


# -------------------------------------------------------------- self time
def test_self_times_subtract_direct_children():
    # root(sim) 0..100 -> net 10..40 -> vm 20..25 ; root -> vm 50..70
    spans_ = [(2, 1, "net", 10, 40), (3, 2, "vm", 20, 25),
              (4, 1, "vm", 50, 70), (1, 0, "sim", 0, 100)]
    assert spans.self_times(spans_) == {"sim": 50, "net": 25, "vm": 25}


def test_recorder_self_time_matches_span_arithmetic():
    recorder = spans.SpanRecorder()

    def leaf():
        return sum(range(2000))

    wrapped_leaf = recorder.wrap(leaf, "vm", "leaf")

    def middle():
        wrapped_leaf()
        return wrapped_leaf()

    wrapped_middle = recorder.wrap(middle, "net", "middle")

    def same_layer():
        # A call that stays inside its layer opens no span.
        return wrapped_middle()

    wrapped_same = recorder.wrap(same_layer, "net", "same")

    def root():
        wrapped_same()
        return wrapped_leaf()

    wrapped_root = recorder.wrap(root, "sim", "root")
    recorder.set_op("op-1")
    wrapped_root()
    kept = recorder.kept_spans()
    assert len(kept) == 5          # root, net, two vm under net, one vm
    assert {span[-1] for span in kept} == {"op-1"}
    by_layer = spans.self_times(
        (sid, parent, layer, start, end)
        for _thread, sid, parent, layer, _name, start, end, _op in kept)
    totals = recorder.totals()["self_s"]
    for layer, ns in by_layer.items():
        assert totals[layer] == pytest.approx(ns / 1e9, abs=1e-12)
    root_span = next(s for s in kept if s[3] == "sim")
    assert sum(by_layer.values()) == root_span[6] - root_span[5]


def test_recorder_reset_and_watch_counts():
    recorder = spans.SpanRecorder()
    counted = recorder.watch(lambda x: x + 1, "inc")
    assert counted(1) == 2 and counted(2) == 3
    assert recorder.totals()["calls"] == {"inc": 2}
    recorder.reset()
    assert recorder.totals()["calls"] == {}


def test_recorder_keeps_a_bounded_number_of_spans(monkeypatch):
    monkeypatch.setattr(spans, "KEEP_SPANS", 3)
    recorder = spans.SpanRecorder()
    fn = recorder.wrap(lambda: None, "sim", "f")
    for _ in range(5):
        fn()
    totals = recorder.totals()
    assert totals["spans_kept"] == 3 and totals["spans_dropped"] == 2


def test_layer_of_maps_modules_to_layers():
    assert spans.layer_of("repro.gateway.bridge") == "bridge"
    assert spans.layer_of("repro.gateway.obs") == "obs"
    assert spans.layer_of("repro.sim.kernel") == "sim"
    assert spans.layer_of("repro.peripherals.bmp180") == "hw"
    assert spans.layer_of("repro.simx") is None


# ------------------------------------------------------------------ op log
TARGETS = oplog.Targets(
    reads=((1, "tmp36"), (2, "bmp180"), (3, "relay")),
    writes=((3, "relay-write"),),
    installs=((1, "tmp36"),),
    probes=())


def test_op_log_is_a_function_of_the_seed():
    first = oplog.generate(TARGETS, 7, 500)
    assert first == oplog.generate(TARGETS, 7, 500)
    assert first != oplog.generate(TARGETS, 8, 500)
    assert [op.request_id for op in first[:2]] == ["op-0", "op-1"]


def test_op_log_follows_the_mix():
    log = oplog.generate(TARGETS, 3, 4000)
    share = {kind: sum(op.kind == kind for op in log) / len(log)
             for kind in ("read", "write", "install")}
    assert share["read"] == pytest.approx(0.70, abs=0.03)
    assert share["write"] == pytest.approx(0.15, abs=0.03)
    assert share["install"] == pytest.approx(0.15, abs=0.03)
    assert all(op.value in (0, 1) for op in log if op.kind == "write")


def test_op_log_without_write_targets_reads_instead():
    targets = oplog.Targets(reads=((1, "tmp36"),), writes=(), installs=(),
                            probes=())
    assert {op.kind for op in oplog.generate(targets, 1, 200)} == {"read"}


def test_probe_verified_targets_are_deterministic():
    from repro.fleet.scenario import SCENARIOS
    from repro.gateway.bridge import GatewayBridge

    scenario = SCENARIOS["gateway"].scaled(things=20, seed=4)
    first = oplog.discover(GatewayBridge(scenario))
    second = oplog.discover(GatewayBridge(scenario))
    assert first == second
    assert first.reads
    assert oplog.generate(first, 4, 300) == oplog.generate(second, 4, 300)


# ------------------------------------------------------ failure accounting
def test_not_found_is_counted_apart_from_failures():
    failures = Failures()
    for status in (200, 200, 404, 504, 500):
        failures.record_status(status)
    failures.record_timeout()
    failures.record_transport_error()
    failures.record_unfinished(2)
    assert failures.attempted == 9
    assert failures.not_found == 1
    assert failures.failed == 2 + 1 + 1 + 2
    assert failures.failed_ratio == pytest.approx(6 / 9)
    assert failures.not_found_ratio == pytest.approx(1 / 9)


def test_other_client_errors_are_wrong_answers():
    failures = Failures()
    failures.record_status(400)
    assert failures.unexpected == 1 and failures.failed == 1


def test_fleet_failed_ratio():
    counters = {"reads.timeout": 3, "driver.request_failures": 1,
                "reads.sent": 30, "driver.requests": 10}
    assert fleet_failed_ratio(counters) == (4, 40, 0.1)
    assert fleet_failed_ratio({}) == (0, 0, 0.0)


# ------------------------------------------------------------ live mix
def test_live_mix_spreads_lookups_among_reads():
    load = Load(pool=None, reads=[(5, "tmp36"), (6, "bmp180")])
    assert load.cycle.count("lookup") == 1 and len(load.cycle) == 18
    assert load.request(0) == ("lookup", "/things")
    assert load.request(1) == ("read", "/things/6/properties/bmp180")
    assert load.request(2) == ("read", "/things/5/properties/tmp36")
    assert load.request(18) == ("lookup", "/things/6")


# ------------------------------------------------- reference host speed
def test_yardstick_times_fixed_work():
    assert 0 < yardstick.measure() < 1.0
    table = yardstick._ensure_table()
    assert len(table) == yardstick.TABLE_SIZE
    assert yardstick._work(table) == yardstick._work(table)
    assert yardstick.table_mb() > 0


def test_at_reference_scales_by_the_median_yardstick():
    ref = yardstick.REFERENCE_S
    assert yardstick.at_reference(2.0, [ref]) == pytest.approx(2.0)
    # The host ran the yardstick twice as slow: the work counts half.
    assert yardstick.at_reference(2.0, [2 * ref, 2 * ref, 9.0]) == \
        pytest.approx(1.0)


def test_reference_figures_scale_each_window_by_its_own_yardstick():
    ref = yardstick.REFERENCE_S
    windows = [(1.0, 100, 1000, [1.0] * 100, [ref, ref]),
               # The same work on a host twice as slow.
               (2.0, 100, 1000, [2.0] * 100, [2 * ref, 2 * ref])]
    figures = reference_figures(windows)
    assert figures["ops_per_s"] == pytest.approx(100.0)
    assert figures["sim_events_per_s"] == pytest.approx(1000.0)
    assert figures["op_p50_ms"] == pytest.approx(1.0)
    assert figures["op_p99_ms"] == pytest.approx(1.0)
    assert figures["op_count"] == 200
    assert figures["host_slowdown_median"] == pytest.approx(1.5)
    with pytest.raises(ValueError):
        reference_figures([])


def test_closed_loop_windows_pair_requests_with_their_yardsticks(
        monkeypatch):
    monkeypatch.setattr(live, "WINDOW_REQUESTS", 2)
    out = Outcomes()
    for n in range(5):
        out.record("read", "/things/1/properties/tmp36", f"c-{n}", 200,
                   {"property": "tmp36", "value": 1}, due=n, sent=n,
                   done=n + 0.5)
    sticks = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    windows = closed_loop_windows(out, {"c-0": 7, "c-3": 1}, sticks)
    # Two full windows; the fifth request is a short tail.
    assert [w[:3] for w in windows] == [(1.5, 2, 7), (1.5, 2, 1)]
    assert windows[0][3] == [500.0, 500.0]
    assert windows[0][4] == [1.0, 2.0, 3.0, 4.0]
    assert windows[1][4] == [3.0, 4.0, 5.0, 6.0]
