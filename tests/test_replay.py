"""End-to-end simulated replays: liveness, determinism, safety, durability."""

import csv
import dataclasses
import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopewatch.alert import AlertEngine, AnalysisConfig, Thresholds
from slopewatch.config import Config, load_config
from slopewatch.domain import CalibrationConstants, SensorKind
from slopewatch.nodesim import Scenario, ScenarioStep, load_scenario, resolve_scenario
from slopewatch.session import LinkConfig, NodePhase, TraceLog
from slopewatch.replay import SimReplay

CALIBRATION = {
    kind: CalibrationConstants(kind, 0.01, 0.0) for kind in SensorKind
}
CALIBRATION[SensorKind.RAIN_GAUGE] = CalibrationConstants(SensorKind.RAIN_GAUGE, 0.2, 0.0)

THRESHOLDS = Thresholds(
    mt_rain_mm_per_h=5.0,
    mt_pore_kpa=50.0,
    mt_displacement_mm=5.0,
    mt_inclination_deg=5.0,
    prediction_horizon=6,
    hold_period_s=1800.0,
)


def make_config(link: LinkConfig) -> Config:
    return Config(
        thresholds=THRESHOLDS,
        analysis=AnalysisConfig(),
        calibration=CALIBRATION,
        link=link,
        sinks=("console",),
    )


def flat_scenario(ticks: int, interval: float = 3600.0) -> Scenario:
    """One quiet reading per sensor per tick; alerts stay green."""
    steps = []
    for k in range(1, ticks + 1):
        t = k * interval
        steps.append(ScenarioStep(t, SensorKind.RAIN_GAUGE, 1))
        steps.append(ScenarioStep(t, SensorKind.PIEZOMETER, 2000))
        steps.append(ScenarioStep(t, SensorKind.EXTENSOMETER, 50))
        steps.append(ScenarioStep(t, SensorKind.INCLINOMETER, 200))
        steps.append(ScenarioStep(t, SensorKind.TILTMETER, 150))
    return Scenario(name="flat", steps=tuple(steps), sample_interval=interval)


def records_at_restart(monkeypatch) -> list:
    """Make every SimReplay restart first snapshot its store's records, into the list returned."""
    snapshots = []
    restart = SimReplay._restart_server

    def spy(self):
        snapshots.append(self.server.repo.all_records())
        restart(self)

    monkeypatch.setattr(SimReplay, "_restart_server", spy)
    return snapshots


def run(scenario, link, store, **kwargs):
    sim = SimReplay(scenario, make_config(link), str(store), **kwargs)
    return sim, sim.run()


class TestLossFreeReplay:
    def test_every_reading_stored_once(self, tmp_path):
        _, summary = run(flat_scenario(20), LinkConfig(), tmp_path / "s", seed=1)
        assert summary.readings_generated == 100
        assert summary.records_stored == 100
        assert summary.duplicates_skipped == 0
        assert summary.frames_dropped == 0

    def test_empty_scenario(self, tmp_path):
        empty = Scenario(name="empty", steps=(), sample_interval=60.0)
        _, summary = run(empty, LinkConfig(), tmp_path / "s", seed=1)
        assert summary.readings_generated == 0
        assert summary.records_stored == 0
        assert summary.alert_timeline == [(0.0, "GREEN")]

    @pytest.mark.parametrize("interval, offsets", [
        (0.01, (0.0, 86400.0)),  # 8,640,000 grid ticks over the day
        (0.1, (0.05, 0.15, 0.3, 1.234, 7.77, 33.333, 100.07)),  # offsets off the grid
    ])
    def test_sampling_ticks_follow_the_readings(self, interval, offsets, tmp_path, monkeypatch):
        ticks = []
        tick = SimReplay._sample_tick

        def counted(self):
            ticks.append(self.now)
            tick(self)

        monkeypatch.setattr(SimReplay, "_sample_tick", counted)
        steps = tuple(ScenarioStep(t, SensorKind.RAIN_GAUGE, 1) for t in offsets)
        _, summary = run(Scenario("fine", steps, interval), LinkConfig(), tmp_path / "s", seed=1)
        assert summary.records_stored == len(offsets)
        # The first tick, then at most one per reading.
        assert len(ticks) <= len(offsets) + 1


class TestLossyReplay:
    def test_exactly_once_under_20pct_drop(self, tmp_path):
        link = LinkConfig(drop_probability=0.2, latency_ms=80)
        _, summary = run(flat_scenario(60), link, tmp_path / "s", seed=11)
        assert summary.records_stored == summary.readings_generated == 300
        assert summary.frames_dropped > 0
        assert summary.duplicates_skipped > 0  # retransmissions happened and were absorbed

    def test_deterministic_for_fixed_seed(self, tmp_path):
        link = LinkConfig(drop_probability=0.2, disconnect_probability_per_frame=0.002)
        _, first = run(flat_scenario(40), link, tmp_path / "a", seed=5)
        _, second = run(flat_scenario(40), link, tmp_path / "b", seed=5)
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_different_seeds_usually_differ(self, tmp_path):
        link = LinkConfig(drop_probability=0.2)
        _, first = run(flat_scenario(40), link, tmp_path / "a", seed=1)
        _, second = run(flat_scenario(40), link, tmp_path / "b", seed=2)
        assert first.frames_dropped != second.frames_dropped

    def test_random_disconnects_recover(self, tmp_path):
        link = LinkConfig(drop_probability=0.1, disconnect_probability_per_frame=0.01)
        _, summary = run(flat_scenario(60), link, tmp_path / "s", seed=3)
        assert summary.records_stored == 300
        assert summary.severs > 0
        assert summary.recoveries >= 1

    def test_liveness_10k_batches_all_acked(self, tmp_path):
        # One reading per tick = one batch per tick; every batch must be
        # acknowledged eventually despite 20% frame loss.
        steps = tuple(
            ScenarioStep(3600.0 * k, SensorKind.RAIN_GAUGE, 1) for k in range(1, 10_001)
        )
        scenario = Scenario(name="batches", steps=steps, sample_interval=3600.0)
        cfg = Config(
            thresholds=THRESHOLDS,
            analysis=AnalysisConfig(max_window_samples=8),  # keep per-batch analysis light
            calibration=CALIBRATION,
            link=LinkConfig(drop_probability=0.2, latency_ms=50),
            sinks=("console",),
        )
        sim = SimReplay(scenario, cfg, str(tmp_path / "s"), seed=17)
        summary = sim.run()
        assert summary.batches_ingested >= 10_000  # retransmits may add duplicates
        assert summary.records_stored == 10_000
        assert sim.node.pending == ()


class TestForcedDisconnects:
    def test_backoff_recovery_visible_in_trace(self, tmp_path):
        scenario = flat_scenario(30)
        sim, summary = run(
            scenario,
            LinkConfig(drop_probability=0.1),
            tmp_path / "s",
            seed=4,
            force_disconnect_at=(scenario.duration / 3, 2 * scenario.duration / 3),
            trace=TraceLog(),
        )
        assert summary.severs >= 2
        assert summary.recoveries >= 1
        assert summary.records_stored == summary.readings_generated
        assert sim.trace.records
        phases = trace_phases(sim.trace, "node")
        assert "Backoff" in phases
        backoff_idx = phases.index("Backoff")
        assert "Connecting" in phases[backoff_idx:]
        assert "Streaming" in phases[backoff_idx:]

    def test_send_data_only_while_streaming(self, tmp_path):
        scenario = flat_scenario(30)
        sim, _ = run(
            scenario,
            LinkConfig(drop_probability=0.15),
            tmp_path / "s",
            seed=9,
            force_disconnect_at=(scenario.duration / 2,),
            trace=TraceLog(),
        )
        assert sim.trace.records
        for rec in sim.trace.records:
            if rec.side == "node" and rec.action.startswith("SendFrame(SEND_DATA"):
                assert rec.state == NodePhase.STREAMING.value

    def test_acks_only_answer_received_batches(self, tmp_path):
        scenario = flat_scenario(20)
        sim, _ = run(scenario, LinkConfig(drop_probability=0.2), tmp_path / "s", seed=13,
                     trace=TraceLog())
        assert sim.trace.records
        for rec in sim.trace.records:
            if rec.side == "server" and "DATA_ACK" in rec.action:
                assert rec.event.startswith("SendDataReceived")


def trace_phases(trace: TraceLog, side: str) -> list[str]:
    """Distinct consecutive states the trace records for one side."""
    seen: list[str] = []
    for rec in trace.records:
        if rec.side == side and (not seen or seen[-1] != rec.state):
            seen.append(rec.state)
    return seen


def counts_from_phases(phases: list[str]) -> tuple[int, int]:
    """Reconnect attempts and recoveries, read off a node's phase sequence."""
    reconnects = sum(
        1 for a, b in zip(phases, phases[1:])
        if a == NodePhase.BACKOFF.value and b == NodePhase.CONNECTING.value
    )
    recoveries = 0
    saw_backoff = False
    for p in phases:
        if p == NodePhase.BACKOFF.value:
            saw_backoff = True
        elif p == NodePhase.STREAMING.value and saw_backoff:
            recoveries += 1
            saw_backoff = False
    return reconnects, recoveries


def store_files(store: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(store.iterdir()) if p.is_file()}


class TestTraceOnRequest:
    """A trace is recorded only when asked for, and asking changes no output."""

    def assert_same_run(self, make_sim, tmp_path, capsys):
        plain = make_sim(tmp_path / "plain", None)
        plain_summary = plain.run()
        plain_out = capsys.readouterr().out
        traced = make_sim(tmp_path / "traced", TraceLog())
        traced_summary = traced.run()
        assert capsys.readouterr().out == plain_out
        assert dataclasses.asdict(traced_summary) == dataclasses.asdict(plain_summary)
        assert store_files(tmp_path / "traced") == store_files(tmp_path / "plain")
        assert plain.trace.records == []
        assert traced.trace.records
        assert counts_from_phases(trace_phases(traced.trace, "node")) == (
            traced_summary.reconnect_attempts, traced_summary.recoveries
        )
        return traced_summary

    @pytest.mark.parametrize("seed", [7, 17, 44])
    def test_storm_replay_unchanged_by_trace(self, seed, tmp_path, capsys):
        scenario = load_scenario(resolve_scenario("seven_day_rain"))
        config = load_config(DEMO)
        self.assert_same_run(
            lambda store, trace: SimReplay(scenario, config, str(store), seed=seed, trace=trace),
            tmp_path, capsys,
        )

    def test_forced_disconnects_counted_without_trace(self, tmp_path, capsys):
        scenario = flat_scenario(30)
        config = make_config(LinkConfig(drop_probability=0.1))
        offsets = (scenario.duration / 3, 2 * scenario.duration / 3)
        summary = self.assert_same_run(
            lambda store, trace: SimReplay(scenario, config, str(store), seed=4,
                                           force_disconnect_at=offsets, trace=trace),
            tmp_path, capsys,
        )
        assert summary.reconnect_attempts > 0
        assert summary.recoveries > 0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(list(NodePhase)), max_size=40))
    def test_live_counts_follow_the_phase_rules(self, tmp_path_factory, sequence):
        store = tmp_path_factory.mktemp("phases")
        sim = SimReplay(flat_scenario(1), make_config(LinkConfig()), str(store))
        sim.server.repo.close()
        for phase in sequence:
            sim._observe_phase(phase)
        distinct = [p.value for i, p in enumerate(sequence) if i == 0 or sequence[i - 1] != p]
        assert (sim.reconnect_attempts, sim.recoveries) == counts_from_phases(distinct)


class TestServerRestart:
    def test_no_acked_batch_lost_across_restart(self, tmp_path, monkeypatch):
        snapshots = records_at_restart(monkeypatch)
        scenario = flat_scenario(40)
        sim, summary = run(
            scenario,
            LinkConfig(drop_probability=0.1),
            tmp_path / "s",
            seed=21,
            server_restart_at=scenario.duration / 2,
        )
        assert len(snapshots) == 1
        final = sim.server.repo
        # reopen from disk to prove durability is on disk, not in memory
        from slopewatch.ingest import Repository

        reloaded = Repository(tmp_path / "s", read_only=True)
        final_keys = {(r.node_id, r.seq) for r in reloaded.all_records()}
        pre_keys = {(r.node_id, r.seq) for r in snapshots[0]}
        assert pre_keys <= final_keys
        assert summary.records_stored == summary.readings_generated
        assert len(final_keys) == summary.readings_generated
        assert len(final) == len(final_keys)


DEMO = Path(__file__).resolve().parent.parent / "config" / "demo.ini"

# sha256 of the console output and of each store file of the bundled storms
# under the demo config. The link seed changes drops and retransmissions but
# none of these.
OUTPUT_DIGESTS = {
    "seven_day_rain": {
        "console": "4f5f7b00ecaaca8a68f2068c97a5d38cd234ce2aa38b03d353b06af0c9c4da78",
        "readings.csv": "fbb0e4ead168f446a74491c6f6b25709d884101f099decf7333d742a63728243",
        "alerts.ndjson": "24385686338770dfe6e3a2c1d1ecb3ad574bc9fb8dc93162561eea2249fdca36",
        "sms_outbox.txt": "507ce4dbbe8d807398101ff2c68952e703924b65e8013669e1222456ce90acfb",
    },
    "three_day_rain": {
        "console": "059ae6ed9d393d115242b95183726e8e8caa65057ddd49bfbe94aff2450d026d",
        "readings.csv": "5a7d31c8ea632928a32b17616be3bbbfba3cfd6b6c12185d18004ae05dfe4870",
        "alerts.ndjson": "8b242ebbc24d62b3d62ad1aab4bf9dd4ff8273c381031503d838326624cd5c40",
        "sms_outbox.txt": "31042b8295d2545f7e43e914c6db88efa156afd42b9fffc2442d1415cfe17412",
    },
}

# sha256 of ReplaySummary.format(), per (scenario, link seed).
SUMMARY_DIGESTS = {
    ("seven_day_rain", 7): "ecd3e1208906ba830d254de8266b3aa19e05a6dbc676638a457829c524a626b4",
    ("seven_day_rain", 17): "0a82e0e10cebbe84e6d0dfd94f53a505fff586304cc68d1a6a07ec9c5d18dcf6",
    ("seven_day_rain", 44): "9f1b7e0dd3aec5543cdfe41b522fbe45bada5292bbff0fba25088df164eb0ada",
    ("three_day_rain", 7): "ad4478710be044ec9bf02e32bc1062137bc9300930cf07e379003e5bd332ccad",
    ("three_day_rain", 17): "4f8a1978870753f45bb36caa4ba9a9886500a614ff7db2b675ae3910ba1918e3",
    ("three_day_rain", 44): "3f366fafa69a51091ea96c2cce3208f0cc0d5e45d3514da0274f1585dac11a99",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenReplays:
    """Decisions, notifications and the store stay byte-identical for fixed seeds."""

    @pytest.mark.parametrize("scenario, seed", sorted(SUMMARY_DIGESTS))
    def test_outputs_match_recorded_digests(self, scenario, seed, tmp_path, capsys):
        store = tmp_path / "store"
        sim = SimReplay(load_scenario(resolve_scenario(scenario)), load_config(DEMO), str(store), seed=seed)
        summary = sim.run()
        digests = {"console": sha256(capsys.readouterr().out.encode())}
        for name in ("readings.csv", "alerts.ndjson", "sms_outbox.txt"):
            digests[name] = sha256((store / name).read_bytes())
        assert digests == OUTPUT_DIGESTS[scenario]
        assert sha256(summary.format().encode()) == SUMMARY_DIGESTS[(scenario, seed)]

# sha256 of the `replay --trace` CSV, per (scenario, link seed, forced
# disconnects), under the demo config.
TRACE_DIGESTS = {
    ("seven_day_rain", 7, 0): "122df8b5359bbd79e98fbad6be817bd154d0ca9e38cd0e1cc9e288dabe63afb4",
    ("seven_day_rain", 7, 3): "16d8b47d78d05c6b44dd6f77b43b3b4f2111faed63b8ca30c0ada32899252eb7",
    ("seven_day_rain", 17, 0): "f9e1065ddc71bc68c76b48e4456f22ed57709e2ff4e6bd353cc507dde5a953e3",
    ("seven_day_rain", 17, 3): "5dd7473dcf73d2f8735e1d6f9fc11c2f36a155adb406842258fe16e8422e19f5",
    ("seven_day_rain", 44, 0): "24937ed827405c85223a283fcc9224628b180c18f28d168e4a2e59d90712fc7a",
    ("seven_day_rain", 44, 3): "cff9bd484249d7fc284097d72d7a4c498cbbb4be9a506b75815d14c1d38da858",
    ("three_day_rain", 7, 0): "ede2557254a8ad79caead26396de94fb81ece2f8f55b9dacdc67793d9adc7855",
    ("three_day_rain", 7, 3): "dcbf77eed53713cdc519b0ce08197d1672e85d5c47a99a2b0f75d1af8730f6e6",
    ("three_day_rain", 17, 0): "0ebe98f5ea20efd0d19625169cff1c2e592c0300bed2664097e6d291f85da49b",
    ("three_day_rain", 17, 3): "ee912c22918dee98eaba1cefa372a18044e276df349ae92e8c2bdc83f6341c5d",
    ("three_day_rain", 44, 0): "58a4c3ca8f60bdabcdc8a284a46be4b88c3c04bfe643b17b99536c98cf20c71c",
    ("three_day_rain", 44, 3): "226688419d83575bb0583488b14f4f63b6e2c98b22f8dd98317c93a794cea9f4",
}


@pytest.mark.parametrize("scenario, seed, disconnects", sorted(TRACE_DIGESTS))
def test_trace_matches_recorded_digest(scenario, seed, disconnects, tmp_path, capsys):
    from slopewatch.cli import main

    trace = tmp_path / "trace.csv"
    assert main(["replay", "--config", str(DEMO), "--scenario", scenario, "--seed", str(seed),
                 "--force-disconnects", str(disconnects), "--store", str(tmp_path / "store"),
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert sha256(trace.read_bytes()) == TRACE_DIGESTS[(scenario, seed, disconnects)]


def late_heavy_scenario(ticks: int = 400, interval: float = 10.0) -> Scenario:
    """Five sensors sampled every ``interval`` s, faster than the node's
    retransmit timeout, so that under loss a retransmitted batch is stored
    after later ones. Rain turns wet after the first tenth, and pore
    pressure, displacement and tilt ramp up to and past the demo
    thresholds, which moves the ladder."""
    rng = random.Random(400)
    steps = []
    for k in range(1, ticks + 1):
        t, ramp = k * interval, k / ticks
        steps.append(ScenarioStep(t, SensorKind.RAIN_GAUGE, rng.choice([0, 0, 0, 1, 2]) if ramp > 0.1 else 0))
        steps.append(ScenarioStep(t, SensorKind.PIEZOMETER, rng.randint(3000, 4000) + int(2500 * ramp)))
        steps.append(ScenarioStep(t, SensorKind.EXTENSOMETER, rng.randint(100, 400) + int(400 * ramp)))
        steps.append(ScenarioStep(t, SensorKind.INCLINOMETER, rng.randint(100, 400) + int(300 * ramp)))
        steps.append(ScenarioStep(t, SensorKind.TILTMETER, rng.randint(100, 400) + int(300 * ramp)))
    return Scenario(name="late_heavy", steps=tuple(steps), sample_interval=interval)


def late_heavy_config() -> Config:
    demo = load_config(DEMO)
    return dataclasses.replace(
        demo,
        analysis=dataclasses.replace(demo.analysis, max_window_samples=64),
        link=dataclasses.replace(demo.link, drop_probability=0.3),
    )


def rows_stored_late(readings_csv: Path) -> int:
    """Rows of ``readings.csv``, in file order, earlier than a row stored before them for their sensor."""
    latest: dict[str, float] = {}
    late = 0
    with open(readings_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            sensor, ts = row["sensor"], float(row["ts_unix"])
            if ts < latest.get(sensor, ts):
                late += 1
            else:
                latest[sensor] = ts
    return late


# sha256 of the console output, of each store file and of ReplaySummary.format()
# for late_heavy_scenario() under late_heavy_config(), per link seed.
LATE_HEAVY_DIGESTS = {
    0: {
        "console": "9aaa20cf3edd0aba21f60278037b71d7b71f91ed0af3c5ecb5fabc12690c5be4",
        "readings.csv": "79cb3e60a6d03dbe4acd9d2e132d693332557a6118c69bc533039881d9617332",
        "alerts.ndjson": "35b250f399de502811f253c1742e45565ad9fed1a9f7d0f1745ad28e36079644",
        "sms_outbox.txt": "725fbef143ee0c554e8f006846780d4995ad90906724f2a6d00fca06176edc5a",
        "summary": "f93659f9ae4865d6a5790ef9b24889bbf25ecd82f75f95e5a6c963597696eb3c",
    },
    1: {
        "console": "78f08135a625934497032c82e7f4534b2a4770e779f02a8c81295ec8803fb197",
        "readings.csv": "08bc38743ae74b1e361106a1a6ce1babd4f95ac681847b1fb2d5b8a021cd38d4",
        "alerts.ndjson": "b6aca26e8ba952f4ab7d1db54b01f3ef4634fc9cdcd564f50229fc8bc2fe590d",
        "sms_outbox.txt": "de922c04bc61adcf078e0439aad1177ce2d02006e2b5412b9267ba7bfe712a86",
        "summary": "a4d6d952be95f81be1deb7f2a8717354baae1b759828f2f0a6c85209c48ddd07",
    },
    2: {
        "console": "d3c2e2db5f58adb649cf6424ad670e64be47aea1f5c401d6c659a1cfb59c1f0f",
        "readings.csv": "28a3e4ae4a7e03e69b4f25c2f75d064202b69ecb3b28e49801d0e3e5f41ed1b2",
        "alerts.ndjson": "fa7e56d77323d92b1317e77c2e44d269fa213823e70b5f4ad993362f2e793963",
        "sms_outbox.txt": "0d9ea9c191d383a9016d16b23312d3e04cca849e17eb10604b2587809acf0367",
        "summary": "7a07a764b37a97917be6c850a4ae85add2bc0689307985da3a56ca61dfc065e7",
    },
    3: {
        "console": "c056d3459a68cfc8240c9919c8300940ce0a51f5f209f25e03fcfc2f8786ef5a",
        "readings.csv": "b9754f783e133442661f70948149ed67b7da6c3ea6d3b57dd8eec527d923af9a",
        "alerts.ndjson": "33e8198d240cf304b3605da3115cd49bc6ea4be6e66802d8b025e68a3f669e4c",
        "sms_outbox.txt": "d3c432859260a6ea990e4f1fbcdbbfd133b3ad6ba53d80b1bd87c7d62f31b914",
        "summary": "8e31eced1f84d52f3fbaabe4acdb257cf15846a3c2f12c17b7f66b31a5291762",
    },
    4: {
        "console": "c056d3459a68cfc8240c9919c8300940ce0a51f5f209f25e03fcfc2f8786ef5a",
        "readings.csv": "3bd3b52f26b713f4271a3ae013ae66cb001d00ca22bf1c90cbf238c127e8cdb7",
        "alerts.ndjson": "5099bf8eadfadf5d7a7bfefcbd9653f8653330e3d96448331f8524129d2b7054",
        "sms_outbox.txt": "d3c432859260a6ea990e4f1fbcdbbfd133b3ad6ba53d80b1bd87c7d62f31b914",
        "summary": "ae19880efb9f8eee78e6a5d432d2e3762054bad90d6e109b8cfdd3d523b8d0ce",
    },
}


class TestLateHeavyReplay:
    """Readings stored out of time order are judged as the time-sorted store would be."""

    @pytest.mark.parametrize("seed", sorted(LATE_HEAVY_DIGESTS))
    def test_late_rows_decide_as_the_sorted_store(self, seed, tmp_path, capsys):
        config = late_heavy_config()
        store = tmp_path / "store"
        sim = SimReplay(late_heavy_scenario(), config, str(store), seed=seed)
        summary = sim.run()
        digests = {"console": sha256(capsys.readouterr().out.encode())}
        for name in ("readings.csv", "alerts.ndjson", "sms_outbox.txt"):
            digests[name] = sha256((store / name).read_bytes())
        digests["summary"] = sha256(summary.format().encode())

        assert rows_stored_late(store / "readings.csv") > 0
        records = sim.server.repo.all_records()
        assert summary.records_stored == summary.readings_generated == len(records)
        assert len({(r.node_id, r.seq) for r in records}) == len(records)
        fresh = AlertEngine(config.thresholds, config.analysis)
        fresh.observe(sorted(records, key=lambda r: (r.timestamp, r.node_id, r.seq)))
        assert repr(sim.server.alert_engine.snapshots()) == repr(fresh.snapshots())
        assert digests == LATE_HEAVY_DIGESTS[seed]
