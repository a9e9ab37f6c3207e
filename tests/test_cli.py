"""Command line behaviour: exit codes, output formats, socket transport."""

import csv
import gc
import io
import json
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from slopewatch.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from slopewatch.ingest import Repository

DEMO = str(Path(__file__).resolve().parent.parent / "config" / "demo.ini")


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["node", "--help"],
        ["server", "--help"],
        ["replay", "--help"],
        ["analyze", "--help"],
        ["report", "--help"],
    ],
)
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "--" in capsys.readouterr().out


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_threshold_keys_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[thresholds]\nmt_rain_mm_per_h = 5\n")
    code, _, err = run_cli(["replay", "--config", str(bad), "--scenario", "three_day_rain",
                            "--store", str(tmp_path / "s")], capsys)
    assert code == EXIT_CONFIG
    assert "mt_pore_kpa" in err and "ar_order" in err


@pytest.mark.parametrize(
    "line, bad",
    [
        ("ar_order = 2", "ar_order = 0"),
        ("dry_gap_h = 6.0", "dry_gap_h = 0"),
        ("antecedent_lookback_h = 72.0", "antecedent_lookback_h = 0"),
    ],
)
def test_invalid_analysis_setting_exits_two(line, bad, tmp_path, capsys):
    text = Path(DEMO).read_text()
    assert line in text
    edited = tmp_path / "demo.ini"
    edited.write_text(text.replace(line, bad))
    code, out, err = run_cli(["replay", "--config", str(edited), "--scenario", "three_day_rain",
                              "--store", str(tmp_path / "s")], capsys)
    assert code == EXIT_CONFIG
    assert bad.split()[0] in err
    assert out == ""


def test_non_finite_settings_exit_two(tmp_path, capsys):
    # Accepted, these two would move the seed-7 storm's YELLOW from h73 to h84.
    text = Path(DEMO).read_text()
    edited = tmp_path / "demo.ini"
    edited.write_text(text.replace("mt_rain_mm_per_h = 5.0", "mt_rain_mm_per_h = nan")
                      .replace("dry_gap_h = 6.0", "dry_gap_h = inf"))
    code, out, err = run_cli(["replay", "--config", str(edited), "--scenario", "seven_day_rain",
                              "--seed", "7", "--store", str(tmp_path / "s")], capsys)
    assert code == EXIT_CONFIG
    assert "mt_rain_mm_per_h must be finite" in err and "dry_gap_h must be finite" in err
    assert out == ""


SCENARIO = Path(__file__).resolve().parent.parent / "src" / "slopewatch" / "scenarios" / "three_day_rain.csv"


@pytest.mark.parametrize("which", ["config", "scenario"])
def test_file_that_is_not_utf8_exits_two(which, tmp_path, capsys):
    # One byte that is not UTF-8 in a comment of an otherwise valid file.
    src = Path(DEMO) if which == "config" else SCENARIO
    bad = tmp_path / src.name
    bad.write_bytes(b"# caf\xe9\n" + src.read_bytes())
    if which == "config":
        argv = ["server", "--config", str(bad), "--listen", "127.0.0.1:0"]
    else:
        argv = ["replay", "--config", DEMO, "--scenario", str(bad)]
    code, out, err = run_cli(argv + ["--store", str(tmp_path / "s")], capsys)
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and "not UTF-8" in err and "0xe9" in err
    assert out == ""


def test_missing_scenario_exit_two(tmp_path, capsys):
    code, _, err = run_cli(["replay", "--config", DEMO, "--scenario", "nope",
                            "--store", str(tmp_path / "s")], capsys)
    assert code == EXIT_CONFIG
    assert "nope" in err


def test_bad_sample_interval_directive_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("# sample_interval_s: 1.2.3\nt_offset_s,sensor,raw\n60,rain_gauge,1\n")
    code, out, err = run_cli(["replay", "--config", DEMO, "--scenario", str(bad),
                              "--store", str(tmp_path / "s")], capsys)
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and "bad.csv line 1" in err
    assert out == "" and not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["server", "--config", DEMO, "--listen", "127.0.0.1:abc"],
        ["server", "--config", DEMO, "--listen", "127.0.0.1:70000"],
        ["node", "--scenario", "three_day_rain", "--connect", "127.0.0.1"],
        ["node", "--scenario", "three_day_rain", "--connect", "127.0.0.1:x"],
    ],
    ids=["listen-port-not-a-number", "listen-port-too-large", "connect-without-port",
         "connect-port-not-a-number"],
)
def test_bad_address_exits_two_before_opening_anything(argv, tmp_path, capsys):
    store = tmp_path / "s"
    extra = ["--store", str(store)] if argv[0] == "server" else []
    code, out, err = run_cli(argv + extra, capsys)
    assert code == EXIT_CONFIG
    assert err.startswith("error: bad address ")
    assert out == "" and not store.exists()


def test_busy_port_exits_one_without_creating_the_store(tmp_path, capsys):
    import socket

    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        port = busy.getsockname()[1]
        code, out, _ = run_cli(["server", "--config", DEMO, "--store", str(tmp_path / "s"),
                                "--listen", f"127.0.0.1:{port}"], capsys)
    assert code == EXIT_RUNTIME
    assert out == "" and not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "text, listening, addr",
    [
        ("127.0.0.1", True, ("127.0.0.1", 0)),
        (":", True, ("127.0.0.1", 0)),
        ("0.0.0.0:65535", True, ("0.0.0.0", 65535)),
        (":1", False, ("127.0.0.1", 1)),
        ("localhost:9470", False, ("localhost", 9470)),
    ],
)
def test_parse_address(text, listening, addr):
    from slopewatch.nettransport import parse_address

    assert parse_address(text, listening=listening) == addr


@pytest.mark.parametrize("text", ["127.0.0.1:0", "127.0.0.1:65536", "127.0.0.1:-1", "127.0.0.1:+80", ":"])
def test_connect_needs_a_port_from_1_to_65535(text):
    from slopewatch.config import ConfigError
    from slopewatch.nettransport import parse_address

    with pytest.raises(ConfigError, match="bad address"):
        parse_address(text, listening=False)


class TestReplayCommand:
    def test_three_day_storm_summary(self, tmp_path, capsys):
        store = tmp_path / "run"
        code, out, _ = run_cli(
            ["replay", "--config", DEMO, "--scenario", "three_day_rain",
             "--store", str(store), "--seed", "3"],
            capsys,
        )
        assert code == EXIT_OK
        assert "readings generated  138" in out
        assert "records stored      138" in out
        assert "alert timeline:" in out
        assert (store / "readings.csv").exists()
        assert (store / "alerts.ndjson").exists()

    def test_deterministic_output(self, tmp_path, capsys):
        outs = []
        for sub in ("a", "b"):
            code, out, _ = run_cli(
                ["replay", "--config", DEMO, "--scenario", "three_day_rain",
                 "--store", str(tmp_path / sub), "--seed", "9"],
                capsys,
            )
            assert code == EXIT_OK
            outs.append(out)
        assert outs[0] == outs[1]

    def test_trace_file_written(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            ["replay", "--config", DEMO, "--scenario", "three_day_rain",
             "--store", str(tmp_path / "s"), "--seed", "3", "--trace", str(trace)],
            capsys,
        )
        assert code == EXIT_OK
        lines = trace.read_text().splitlines()
        assert lines[0] == "ts,side,node_id,state,event,action"
        assert any(",node,1,Streaming,ReadingsAvailable" in line for line in lines)
        assert any(",server,1," in line for line in lines)

    def test_forced_disconnects_reported(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["replay", "--config", DEMO, "--scenario", "three_day_rain",
             "--store", str(tmp_path / "s"), "--seed", "4", "--force-disconnects", "2"],
            capsys,
        )
        assert code == EXIT_OK
        severs = int(next(l for l in out.splitlines() if l.startswith("link severs")).split()[-1])
        assert severs >= 2


class TestAnalyzeCommand:
    @pytest.fixture()
    def store(self, tmp_path, capsys):
        store = tmp_path / "run"
        assert main(["replay", "--config", DEMO, "--scenario", "three_day_rain",
                     "--store", str(store), "--seed", "3"]) == EXIT_OK
        capsys.readouterr()
        return store

    def test_text_report(self, store, capsys):
        code, out, _ = run_cli(["analyze", "--store", str(store), "--config", DEMO], capsys)
        assert code == EXIT_OK
        assert "rain events" in out
        assert "antecedent rainfall" in out
        assert "rain_gauge" in out

    def test_event_count_matches_replay_summary(self, tmp_path, capsys):
        store = tmp_path / "run2"
        code, replay_out, _ = run_cli(
            ["replay", "--config", DEMO, "--scenario", "three_day_rain",
             "--store", str(store), "--seed", "3"], capsys)
        assert code == EXIT_OK
        summary_events = int(
            next(l for l in replay_out.splitlines() if l.startswith("rain events")).split()[-1]
        )
        code, out, _ = run_cli(["analyze", "--store", str(store), "--config", DEMO,
                                "--format", "csv"], capsys)
        assert code == EXIT_OK
        analyzed_events = len(list(csv.DictReader(io.StringIO(out))))
        assert analyzed_events == summary_events

    def test_csv_round_trips(self, store, capsys):
        code, out, _ = run_cli(["analyze", "--store", str(store), "--config", DEMO,
                                "--format", "csv"], capsys)
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1  # continuous 72 h storm = one event
        event = rows[0]
        assert float(event["total_mm"]) == pytest.approx(0.2 * 12 + 6.0 * 36 + 3.0 * 24)
        assert float(event["duration_h"]) == pytest.approx(72.0)
        # csv numbers re-parse to the same values the text path printed
        code2, out2, _ = run_cli(["analyze", "--store", str(store), "--config", DEMO,
                                  "--format", "csv"], capsys)
        assert out2 == out

    def test_empty_store_exits_zero(self, tmp_path, capsys):
        store = tmp_path / "empty"
        Repository(store).close()
        code, out, _ = run_cli(["analyze", "--store", str(store)], capsys)
        assert code == EXIT_OK
        assert "rain events" in out

    def test_missing_store_is_runtime_error(self, tmp_path, capsys):
        code, _, err = run_cli(["analyze", "--store", str(tmp_path / "nope")], capsys)
        assert code == EXIT_RUNTIME

    def test_corrupt_rows_warn_but_proceed(self, store, capsys):
        with open(store / "readings.csv", "a") as fh:
            fh.write("garbage line\n")
        code, _, err = run_cli(["analyze", "--store", str(store)], capsys)
        assert code == EXIT_OK
        assert "skipping unparseable row" in err

    def test_a_byte_that_is_not_utf8_warns_but_proceeds(self, store, capsys):
        with open(store / "readings.csv", "ab") as fh:
            fh.write(b"10\xff0,1,rain_gauge,999999,0.4\n")
        code, out, err = run_cli(["analyze", "--store", str(store)], capsys)
        assert code == EXIT_OK
        assert "skipping unparseable row" in err and "\\xff" in err
        assert "rain events" in out

    def test_all_rows_corrupt_is_runtime_error(self, tmp_path, capsys):
        store = tmp_path / "bad"
        store.mkdir()
        (store / "readings.csv").write_text("ts_unix,node_id,sensor,seq,value\nnot,good\nbad,too\n")
        code, _, err = run_cli(["analyze", "--store", str(store)], capsys)
        assert code == EXIT_RUNTIME


class TestReportCommand:
    def test_alert_history(self, tmp_path, capsys):
        store = tmp_path / "run"
        assert main(["replay", "--config", DEMO, "--scenario", "three_day_rain",
                     "--store", str(store), "--seed", "3"]) == EXIT_OK
        capsys.readouterr()
        code, out, _ = run_cli(["report", "--store", str(store)], capsys)
        assert code == EXIT_OK
        assert "YELLOW" in out and "ORANGE" in out
        assert "sms outbox" in out

    def test_csv_format(self, tmp_path, capsys):
        store = tmp_path / "run"
        store.mkdir()
        (store / "alerts.ndjson").write_text(
            json.dumps({"ts": 5.0, "level": "YELLOW", "mode": "multi",
                        "source": "current", "exceedances": {}, "message": "m"}) + "\n"
        )
        code, out, _ = run_cli(["report", "--store", str(store), "--format", "csv"], capsys)
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["level"] == "YELLOW"

    def test_empty_store_ok(self, tmp_path, capsys):
        store = tmp_path / "run"
        store.mkdir()
        code, out, _ = run_cli(["report", "--store", str(store)], capsys)
        assert code == EXIT_OK
        assert "0 notifications" in out

    GOOD = json.dumps({"ts": 5.0, "level": "YELLOW", "mode": "multi", "source": "current",
                       "exceedances": {}, "message": "m"}).encode()

    @pytest.mark.parametrize("line", [b'{"ts": "x"}', b'{"ts": null}', b"[1, 2]", b"7",
                                      b'{"ts": 5\xff}', b'{"level": "YEL\xffLOW"}'])
    def test_lines_that_are_not_alert_records(self, line, tmp_path, capsys):
        store = tmp_path / "run"
        store.mkdir()
        (store / "alerts.ndjson").write_bytes(line + b"\n")
        code, out, err = run_cli(["report", "--store", str(store)], capsys)
        assert code == EXIT_RUNTIME
        assert err == ("warning: alerts.ndjson line 1: unparseable\n"
                       "error: no parseable alert records\n")
        (store / "alerts.ndjson").write_bytes(self.GOOD + b"\n" + line + b"\n" + self.GOOD + b"\n")
        code, out, err = run_cli(["report", "--store", str(store), "--format", "csv"], capsys)
        assert code == EXIT_OK
        assert [row["level"] for row in csv.DictReader(io.StringIO(out))] == ["YELLOW", "YELLOW"]
        assert err == "warning: alerts.ndjson line 2: unparseable\n"

    def test_sms_outbox_counted_and_closed(self, tmp_path, capsys):
        store = tmp_path / "run"
        store.mkdir()
        (store / "sms_outbox.txt").write_bytes(b"one\n\ntw\xf6\nthree\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run_cli(["report", "--store", str(store)], capsys)
            gc.collect()
        assert code == EXIT_OK
        assert "sms outbox: 3 messages" in out
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestSocketTransport:
    def test_node_streams_scenario_to_station(self, tmp_path):
        from slopewatch.config import load_config
        from slopewatch.nettransport import NodeRunner, StationServer
        from slopewatch.nodesim import Scenario, ScenarioStep
        from slopewatch.domain import SensorKind

        cfg = load_config(DEMO)
        store = tmp_path / "store"
        steps = tuple(
            ScenarioStep(15.0 * k, SensorKind.RAIN_GAUGE, k) for k in range(1, 9)
        )
        scenario = Scenario(name="mini", steps=steps, sample_interval=15.0)

        server = StationServer(("127.0.0.1", 0), cfg, str(store))
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            runner = NodeRunner(scenario, node_id=3, connect=f"127.0.0.1:{port}", speedup=120.0)
            assert runner.run() == 0
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with server.engine_lock:
                    if server.engine.records_stored >= 8:
                        break
                time.sleep(0.05)
            with server.engine_lock:
                assert server.engine.records_stored == 8
                assert server.engine.sessions[3].client_ip.startswith("10.77.")
        finally:
            server.shutdown()
            server.close_store()
            server.server_close()
        reloaded = Repository(store, read_only=True)
        assert len(reloaded) == 8
        assert {r.node_id for r in reloaded.all_records()} == {3}

    @pytest.mark.parametrize("fault", ["crc bit", "short payload"])
    def test_node_survives_a_corrupt_data_ack(self, fault, tmp_path, caplog):
        from slopewatch import wire
        from slopewatch.config import load_config
        from slopewatch.nettransport import NodeRunner, StationServer, _StationHandler
        from slopewatch.nodesim import Scenario, ScenarioStep
        from slopewatch.domain import SensorKind

        corrupted = threading.Event()

        def corrupt(data):
            if fault == "crc bit":
                return data[:-1] + bytes([data[-1] ^ 0x01])
            return wire.encode_frame(wire.Frame(wire.MessageType.DATA_ACK, data[6:9]))

        class CorruptFirstAck(_StationHandler):
            """Corrupts the first DATA_ACK; sends every later frame intact."""

            def setup(self):
                super().setup()
                write = self.wfile.write

                def corrupt_first_ack(data):
                    if data[3] == wire.MessageType.DATA_ACK and not corrupted.is_set():
                        corrupted.set()
                        data = corrupt(data)
                    return write(data)

                self.wfile.write = corrupt_first_ack

        steps = tuple(ScenarioStep(15.0 * k, SensorKind.RAIN_GAUGE, k) for k in range(1, 9))
        scenario = Scenario(name="mini", steps=steps, sample_interval=15.0)
        server = StationServer(("127.0.0.1", 0), load_config(DEMO), str(tmp_path / "store"))
        server.RequestHandlerClass = CorruptFirstAck
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        try:
            runner = NodeRunner(scenario, node_id=3, connect=f"127.0.0.1:{server.server_address[1]}",
                                speedup=120.0)
            with caplog.at_level("WARNING", logger="slopewatch.nettransport"):
                assert runner.run() == 0
            assert corrupted.is_set()
            assert runner.driver.state.pending == ()
            assert any("dropping bad frame" in r.getMessage() for r in caplog.records)
            with server.engine_lock:
                assert server.engine.records_stored == 8
        finally:
            server.shutdown()
            server.close_store()
            server.server_close()

    def test_malformed_send_data_leaves_the_connection_served(self, tmp_path):
        # A SEND_DATA with a valid CRC but an unknown sensor code gets no ack;
        # the next good batch on the same connection is stored and acked.
        import socket

        from slopewatch import wire
        from slopewatch.config import load_config
        from slopewatch.nettransport import StationServer
        from slopewatch.session import ServerPhase
        from slopewatch.wire import Frame, MessageType

        server = StationServer(("127.0.0.1", 0), load_config(DEMO), str(tmp_path / "store"))
        threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True).start()
        try:
            with socket.create_connection(server.server_address[:2], timeout=10) as sock, \
                    sock.makefile("rb") as rfile:
                session_id = _announce_and_connect(sock, rfile)
                readings = tuple((code, 100 * code) for code in range(1, 6))
                bad = wire.encode_senddata(wire.SendDataPayload(session_id, 0, 1_700_000_000, readings))
                bad = bad[:17] + b"\x77" + bad[18:]  # the first reading's sensor code
                sock.sendall(wire.encode_frame(Frame(MessageType.SEND_DATA, bad)))
                good = wire.SendDataPayload(session_id, 5, 1_700_000_600, readings)
                sock.sendall(wire.encode_frame(Frame(MessageType.SEND_DATA, wire.encode_senddata(good))))
                ack = wire.read_frame(rfile)
                assert ack.msg_type is MessageType.DATA_ACK and wire.decode_dataack(ack.payload) == 5
                with server.engine_lock:
                    assert (server.engine.violations, server.engine.records_stored) == (1, 5)
                    assert server.engine.sessions[3].phase is ServerPhase.CONNECTED
        finally:
            server.shutdown()
            server.close_store()
            server.server_close()

    def test_engine_failure_still_ends_the_session(self, tmp_path):
        # Whatever the engine raises, closing the connection steps the node's
        # server session out of CONNECTED.
        import socket

        from slopewatch import wire
        from slopewatch.config import load_config
        from slopewatch.nettransport import StationServer
        from slopewatch.session import ServerPhase
        from slopewatch.wire import Frame, MessageType

        server = StationServer(("127.0.0.1", 0), load_config(DEMO), str(tmp_path / "store"))
        server.handle_error = lambda request, client_address: None  # no traceback on stderr
        threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True).start()
        try:
            with socket.create_connection(server.server_address[:2], timeout=10) as sock, \
                    sock.makefile("rb") as rfile:
                session_id = _announce_and_connect(sock, rfile)
                server.engine.alert_engine.evaluate_batch = _raise_runtime_error
                payload = wire.SendDataPayload(session_id, 0, 1_700_000_000, ((1, 5),))
                sock.sendall(wire.encode_frame(Frame(MessageType.SEND_DATA, wire.encode_senddata(payload))))
                assert wire.read_frame(rfile) is None  # the handler died and closed the connection
            with server.engine_lock:
                assert server.engine.sessions[3].phase is ServerPhase.KNOWN_CLIENT
        finally:
            server.shutdown()
            server.close_store()
            server.server_close()

    def test_closing_an_old_connection_keeps_the_new_session(self, tmp_path):
        # Connection A holds node 3's session, connection B opens a new one;
        # A closing must not end B's session.
        import socket

        from slopewatch import wire
        from slopewatch.config import load_config
        from slopewatch.nettransport import StationServer
        from slopewatch.session import ServerPhase
        from slopewatch.wire import Frame, MessageType

        server = StationServer(("127.0.0.1", 0), load_config(DEMO), str(tmp_path / "store"))
        link_down = server.engine.handle_link_down
        a_closed = threading.Event()

        def spy(*args, **kwargs):
            try:
                return link_down(*args, **kwargs)
            finally:
                a_closed.set()

        server.engine.handle_link_down = spy
        threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True).start()
        try:
            addr = server.server_address[:2]
            with socket.create_connection(addr, timeout=10) as b, b.makefile("rb") as b_in:
                with socket.create_connection(addr, timeout=10) as a, a.makefile("rb") as a_in:
                    old = _announce_and_connect(a, a_in)
                    b.sendall(wire.encode_frame(Frame(MessageType.REQ_CONN, wire.encode_reqconn(3, 100))))
                    new = wire.decode_connack(wire.read_frame(b_in).payload)[0]
                    assert new != old
                assert a_closed.wait(5.0)  # A's handler has run its link-down
                with server.engine_lock:
                    assert server.engine.sessions[3].phase is ServerPhase.CONNECTED
                b.settimeout(1.0)
                payload = wire.SendDataPayload(new, 0, 1_700_000_000, ((1, 5),))
                b.sendall(wire.encode_frame(Frame(MessageType.SEND_DATA, wire.encode_senddata(payload))))
                ack = wire.read_frame(b_in)
                assert ack.msg_type is MessageType.DATA_ACK and wire.decode_dataack(ack.payload) == 0
            with server.engine_lock:
                assert server.engine.violations == 0
        finally:
            server.shutdown()
            server.close_store()
            server.server_close()

    def test_both_ends_disable_nagle(self, tmp_path):
        import socket

        from slopewatch.config import load_config
        from slopewatch.nettransport import NodeRunner, StationServer, _StationHandler
        from slopewatch.nodesim import Scenario

        assert _StationHandler.disable_nagle_algorithm
        server = StationServer(("127.0.0.1", 0), load_config(DEMO), str(tmp_path / "store"))
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        try:
            runner = NodeRunner(Scenario(name="none", steps=(), sample_interval=15.0), node_id=1,
                                connect=f"127.0.0.1:{server.server_address[1]}")
            runner._connect_socket()
            assert runner.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            runner.sock.close()
        finally:
            server.shutdown()
            server.close_store()
            server.server_close()


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_sigint_leaves_parseable_store(tmp_path):
    store = tmp_path / "store"
    proc = subprocess.Popen(
        [sys.executable, "-m", "slopewatch.cli", "server", "--config", DEMO,
         "--store", str(store), "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        assert "listening on" in line
        time.sleep(0.3)
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    assert proc.returncode == 0
    repo = Repository(store, read_only=True)
    assert repo.load_warnings == []


def _announce_and_connect(sock, rfile) -> int:
    """Announce node 3 and open a session over ``sock``; returns the session id."""
    from slopewatch import wire
    from slopewatch.wire import Frame, MessageType

    sock.sendall(wire.encode_frame(Frame(MessageType.SEND_IP, wire.encode_sendip(3, "10.77.0.3"))))
    assert wire.read_frame(rfile).msg_type is MessageType.SERVER_IP
    sock.sendall(wire.encode_frame(Frame(MessageType.REQ_CONN, wire.encode_reqconn(3, 99))))
    return wire.decode_connack(wire.read_frame(rfile).payload)[0]


def _raise_runtime_error(*args):
    raise RuntimeError("engine failure")


def _store_one_batch(port: int) -> None:
    """Announce, connect and store one 5-reading batch over TCP; wait for its ack."""
    import socket

    from slopewatch import wire
    from slopewatch.wire import Frame, MessageType

    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock, sock.makefile("rb") as rfile:
        session_id = _announce_and_connect(sock, rfile)
        readings = tuple((code, 100 * code) for code in range(1, 6))
        payload = wire.SendDataPayload(session_id, 0, 1_700_000_000, readings)
        sock.sendall(wire.encode_frame(Frame(MessageType.SEND_DATA, wire.encode_senddata(payload))))
        ack = wire.read_frame(rfile)
        assert ack.msg_type is MessageType.DATA_ACK and wire.decode_dataack(ack.payload) == 0


def _ignore_sigint() -> None:
    # As a shell does for a command it starts in the background with ``&``.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
@pytest.mark.parametrize(
    "sig, preexec",
    [(signal.SIGTERM, None), (signal.SIGINT, _ignore_sigint)],
    ids=["sigterm", "sigint inherited as ignored"],
)
def test_signal_stops_server_cleanly(tmp_path, sig, preexec):
    store = tmp_path / "store"
    proc = subprocess.Popen(
        [sys.executable, "-m", "slopewatch.cli", "server", "--config", DEMO,
         "--store", str(store), "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        preexec_fn=preexec,
    )
    try:
        line = proc.stdout.readline()
        assert "listening on" in line
        _store_one_batch(int(line.rsplit(":", 1)[1]))
        proc.send_signal(sig)
        out, _ = proc.communicate(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 0, out
    assert "store flushed, bye" in out
    repo = Repository(store, read_only=True)
    assert repo.load_warnings == []
    assert len(repo) == 5


def test_interrupt_before_the_serve_loop_still_closes_the_store(tmp_path, monkeypatch):
    # A signal that lands after "listening on" but before serve_forever has
    # started its loop: stopping must not wait for a loop that never ran.
    from slopewatch import nettransport
    from slopewatch.config import load_config

    def interrupted(self, poll_interval=0.5):
        raise KeyboardInterrupt

    monkeypatch.setattr(nettransport.StationServer, "serve_forever", interrupted)
    result = []
    runner = threading.Thread(
        target=lambda: result.append(
            nettransport.run_station(load_config(DEMO), "127.0.0.1:0", str(tmp_path / "store"))
        ),
        daemon=True,
    )
    runner.start()
    runner.join(timeout=10)
    assert not runner.is_alive()
    assert result == [0]
    assert Repository(tmp_path / "store", read_only=True).load_warnings == []


def test_import_leaves_statistics_unloaded():
    # statistics pulls decimal and fractions into every station process.
    code = "import sys, slopewatch.cli; print(sorted({'statistics', 'decimal', 'fractions'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
