"""The ``repro serve`` command: validation and end-to-end serving."""

import http.client
import json
import threading
import time

import pytest

from repro.cli import main


class TestValidation:
    def test_file_source_requires_file(self, capsys):
        assert main(["serve", "--source", "file"]) == 2
        assert "--file" in capsys.readouterr().err

    def test_negative_nodes_rejected(self, capsys):
        assert main(["serve", "--nodes", "-1"]) == 2
        assert "--nodes" in capsys.readouterr().err

    def test_nonpositive_ttl_rejected(self, capsys):
        assert main(["serve", "--ttl", "0"]) == 2
        assert "--ttl" in capsys.readouterr().err

    def test_bad_max_requests_rejected(self, capsys):
        assert main(["serve", "--max-requests", "0"]) == 2
        assert "--max-requests" in capsys.readouterr().err

    def test_unknown_source_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--source", "martian"])


class TestMalformedFile:
    """A file that is not a network fails on one line, not a traceback."""

    @pytest.mark.parametrize(
        "text, error",
        [
            ("[1, 2]", "TypeError"),
            ('{"node_id": "x"}', "KeyError: 'assessments'"),
            ('{"assessments": {"n0": {"node_id": "n0",', "JSONDecodeError"),
        ],
    )
    def test_exits_2_with_one_line(self, tmp_path, capsys, text, error):
        path = tmp_path / "fleet.json"
        path.write_text(text)
        assert main(["serve", "--source", "file", "--file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{path}: not a network record: ")
        assert error in captured.err
        assert captured.err.count("\n") == 1

    def test_missing_file_exits_2_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert main(["serve", "--source", "file", "--file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{path}: cannot read: No such file or directory\n"
        )


def _serve_in_thread(argv):
    """Run ``repro serve`` in a thread; returns (thread, exit_codes)."""
    codes = []

    def run():
        codes.append(main(argv))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, codes


def _wait_for_port_file(path, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if path.exists() and path.read_text().strip():
            host, port = path.read_text().split()
            return host, int(port)
        time.sleep(0.02)
    raise AssertionError("server never wrote its port file")


def _get(host, port, path, headers=None):
    conn = http.client.HTTPConnection(host, port, timeout=5)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


class TestSyntheticEndToEnd:
    def test_serves_bounded_budget_then_exits(self, tmp_path, capsys):
        port_file = tmp_path / "port"
        thread, codes = _serve_in_thread(
            [
                "serve",
                "--nodes",
                "25",
                "--port",
                "0",
                "--port-file",
                str(port_file),
                "--max-requests",
                "3",
                "--seed",
                "5",
            ]
        )
        host, port = _wait_for_port_file(port_file)

        status, headers, body = _get(host, port, "/v1/fleet")
        assert status == 200
        payload = json.loads(body)
        assert payload["nodes"] == 25
        etag = headers["ETag"]

        status, headers, body = _get(
            host, port, "/v1/fleet", {"If-None-Match": etag}
        )
        assert status == 304 and body == b""

        status, _, body = _get(
            host, port, "/v1/nodes?limit=5&sort=trust"
        )
        assert status == 200
        assert len(json.loads(body)["items"]) == 5

        thread.join(timeout=10)
        assert not thread.is_alive()
        assert codes == [0]
        out = capsys.readouterr().out
        assert "serving 25 nodes" in out
        assert "served 3 request(s)" in out


class TestFileSourceRoundTrip:
    def test_fleet_json_feeds_serve(self, tmp_path, capsys):
        dump = tmp_path / "fleet.json"
        assert main(["fleet", "--json", str(dump)]) == 0
        capsys.readouterr()
        payload = json.loads(dump.read_text())
        assert payload["assessments"]

        port_file = tmp_path / "port"
        thread, codes = _serve_in_thread(
            [
                "serve",
                "--source",
                "file",
                "--file",
                str(dump),
                "--port",
                "0",
                "--port-file",
                str(port_file),
                "--max-requests",
                "2",
            ]
        )
        host, port = _wait_for_port_file(port_file)

        status, _, body = _get(host, port, "/v1/fleet")
        assert status == 200
        summary = json.loads(body)
        assert summary["nodes"] == len(payload["assessments"])
        assert summary["failures"] == len(payload["failures"])

        node_id = sorted(payload["assessments"])[0]
        status, _, body = _get(host, port, f"/v1/nodes/{node_id}")
        assert status == 200
        assert json.loads(body)["node_id"] == node_id

        thread.join(timeout=10)
        assert not thread.is_alive()
        assert codes == [0]
