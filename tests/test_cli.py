"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.parallel import image
from repro.data import tableio
from repro.net.prefix import Prefix
from repro.net.rib import Rib


@pytest.fixture()
def table_path(tmp_path):
    rib = Rib()
    rib.insert(Prefix.parse("10.0.0.0/8"), 1)
    rib.insert(Prefix.parse("192.0.2.0/24"), 2)
    path = str(tmp_path / "rib.txt")
    tableio.save_table(rib, path)
    return path


class TestGenerate:
    def test_custom_table(self, tmp_path, capsys):
        out = str(tmp_path / "out.txt")
        assert main(["generate", "--routes", "300", "--nexthops", "8",
                     "-o", out]) == 0
        rib = tableio.load_table(out)
        assert len(rib) == 300
        assert "300 routes" in capsys.readouterr().out

    def test_dataset_table(self, tmp_path, capsys):
        out = str(tmp_path / "ds.txt")
        assert main(["generate", "--dataset", "RV-nwax-p1",
                     "--scale", "0.002", "-o", out]) == 0
        assert len(tableio.load_table(out)) > 500


class TestCompileAndLookup:
    def test_compile_then_lookup_snapshot(self, table_path, tmp_path, capsys):
        fib = str(tmp_path / "fib.poptrie")
        assert main(["compile", table_path, "-o", fib]) == 0
        assert main(["lookup", fib, "10.1.2.3", "192.0.2.9", "8.8.8.8"]) == 0
        out = capsys.readouterr().out
        assert "10.1.2.3 -> FIB[1]" in out
        assert "192.0.2.9 -> FIB[2]" in out
        assert "8.8.8.8 -> no route" in out

    def test_compile_options(self, table_path, tmp_path):
        fib = str(tmp_path / "fib2.poptrie")
        assert main(["compile", table_path, "-o", fib, "--s", "16",
                     "--no-leafvec", "--aggregate"]) == 0
        trie = image.load_structure(fib)
        assert trie.s == 16 and not trie.config.use_leafvec

    def test_lookup_text_table_directly(self, table_path, capsys):
        assert main(["lookup", table_path, "10.1.2.3"]) == 0
        assert "FIB[1]" in capsys.readouterr().out

    def test_lookup_bad_address(self, table_path, capsys):
        assert main(["lookup", table_path, "not-an-ip"]) == 2

    def test_lookup_wrong_family(self, table_path, capsys):
        assert main(["lookup", table_path, "2001:db8::1"]) == 2


class TestValuePlaneCli:
    @pytest.fixture()
    def geo_table_path(self, tmp_path):
        from repro.net.values import ValueTable

        values = ValueTable("cc")
        rib = Rib(values=values)
        rib.insert(Prefix.parse("10.0.0.0/8"), values.intern("CN"))
        rib.insert(Prefix.parse("10.1.0.0/16"), values.intern("JP"))
        path = str(tmp_path / "geo.txt")
        tableio.save_table(rib, path)
        return path

    def test_lookup_resolves_values(self, geo_table_path, capsys):
        assert main(["lookup", geo_table_path, "10.1.2.3", "10.9.9.9",
                     "11.0.0.1"]) == 0
        out = capsys.readouterr().out
        assert "10.1.2.3 -> JP (id 2)" in out
        assert "10.9.9.9 -> CN (id 1)" in out
        assert "11.0.0.1 -> no route" in out

    def test_lookup_geoip_demo(self, capsys):
        assert main(["lookup", "--geoip", "--geoip-routes", "500",
                     "--seed", "3", "8.8.8.8"]) == 0
        captured = capsys.readouterr()
        assert "geoip demo" in captured.err
        assert "8.8.8.8 ->" in captured.out

    def test_lookup_without_table_or_geoip_errors(self, capsys):
        assert main(["lookup", "8.8.8.8"]) == 2
        assert "table" in capsys.readouterr().err.lower()

    def test_bench_geoip_writes_artifact(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_geoip.json")
        assert main(["bench", "--geoip", "--geoip-routes", "800",
                     "--queries", "2000", "--seed", "5",
                     "--json", out]) == 0
        assert "GeoIP value plane" in capsys.readouterr().out
        import json

        payload = json.loads(open(out).read())
        assert payload["scenario"] == "geoip"
        assert payload["oracle_agreement"] is True
        raw, simple = payload["builds"][0], payload["builds"][1]
        assert simple["inodes"] < raw["inodes"]

    def test_bench_geoip_rejects_other_modes(self, capsys):
        assert main(["bench", "--geoip", "--kernel"]) == 2
        assert main(["bench", "--geoip", "--workers", "2"]) == 2

    def test_bench_without_table_errors(self, capsys):
        assert main(["bench"]) == 2


class TestInfoAndBench:
    def test_info(self, table_path, capsys):
        assert main(["info", table_path]) == 0
        out = capsys.readouterr().out
        assert "Poptrie18" in out and "SAIL" in out

    def test_bench(self, table_path, capsys):
        assert main(["bench", table_path, "--queries", "2000",
                     "--repeats", "1"]) == 0
        assert "Mlps" in capsys.readouterr().out

    @pytest.mark.parametrize("ipv6", [False, True])
    def test_bench_kernel_writes_artifact(self, ipv6, tmp_path, capsys):
        import json

        rib = str(tmp_path / "rib.txt")
        out = str(tmp_path / "BENCH_kernels.json")
        assert main(["generate", "--routes", "400", "-o", rib]
                    + (["--ipv6"] if ipv6 else [])) == 0
        assert main(["bench", rib, "--kernel", "--queries", "3000",
                     "--repeats", "1", "--algorithm", "Poptrie16",
                     "--algorithm", "Patricia", "--json", out]) == 0
        payload = json.loads(open(out).read())
        assert payload["width"] == (128 if ipv6 else 32)
        poptrie, patricia = payload["results"]
        assert poptrie["batch_engine"] == "kernel:poptrie"
        assert poptrie["oracle_match"] is True
        assert poptrie["kernel_sha256"] == poptrie["scalar_sha256"]
        assert poptrie["speedup_vs_scalar"] == pytest.approx(
            poptrie["kernel_mlps"] / poptrie["scalar_mlps"]
        )
        assert "generic_template_mlps" not in poptrie
        assert patricia["batch_engine"] == "scalar"
        assert patricia["kernel_mlps"] is None
        assert patricia["speedup_vs_scalar"] is None
        assert patricia["oracle_match"] is None


class TestVerify:
    def test_verify_text_table(self, table_path, capsys):
        assert main(["verify", table_path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_healthy_snapshot(self, table_path, tmp_path, capsys):
        fib = str(tmp_path / "fib.poptrie")
        assert main(["compile", table_path, "-o", fib]) == 0
        capsys.readouterr()
        assert main(["verify", fib]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_snapshot_against_table(self, table_path, tmp_path, capsys):
        fib = str(tmp_path / "fib.poptrie")
        main(["compile", table_path, "-o", fib])
        capsys.readouterr()
        assert main(["verify", fib, "--against", table_path,
                     "--samples", "200"]) == 0
        assert "cross-checked" in capsys.readouterr().out

    def test_verify_truncated_snapshot_fails_with_diagnostic(
        self, table_path, tmp_path, capsys
    ):
        fib = str(tmp_path / "fib.poptrie")
        main(["compile", table_path, "-o", fib])
        with open(fib, "rb") as stream:
            blob = stream.read()
        cases = [
            (blob[:20], "truncat"),  # not even a full header survives
            # A leftover file in the retired pre-image snapshot format is
            # not an image, so it is read as a text table and refused as
            # binary.
            (b"POPTRIE1" + bytes(32) + b"\xff" * 8, "binary data"),
        ]
        for content, diagnostic in cases:
            with open(fib, "wb") as stream:
                stream.write(content)
            capsys.readouterr()
            assert main(["verify", fib]) == 1
            err = capsys.readouterr().err
            assert "error:" in err and diagnostic in err
            assert "Traceback" not in err

    def test_verify_bitflipped_snapshot_fails(self, table_path, tmp_path,
                                              capsys):
        fib = str(tmp_path / "fib.poptrie")
        main(["compile", table_path, "-o", fib])
        blob = bytearray(open(fib, "rb").read())
        blob[len(blob) // 2] ^= 0x40
        with open(fib, "wb") as stream:
            stream.write(bytes(blob))
        capsys.readouterr()
        assert main(["verify", fib]) == 1
        assert "CRC" in capsys.readouterr().err

    def test_verify_table_semantic_mismatch(self, table_path, tmp_path,
                                            capsys):
        """A snapshot verified against a *different* table exits non-zero
        with the diverging lookup in the diagnostic."""
        fib = str(tmp_path / "fib.poptrie")
        main(["compile", table_path, "-o", fib])
        other = str(tmp_path / "other.txt")
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 42)
        tableio.save_table(rib, other)
        capsys.readouterr()
        assert main(["verify", fib, "--against", other]) == 1
        assert "RIB says" in capsys.readouterr().err


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["lookup", "/nonexistent/table.txt", "10.0.0.1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_table_format(self, tmp_path, capsys):
        path = str(tmp_path / "junk.txt")
        with open(path, "w") as stream:
            stream.write("this is not a table\n")
        assert main(["lookup", path, "10.0.0.1"]) == 1


class TestUnifiedTableSpelling:
    """Every table-reading subcommand takes --table; the positional
    keeps working."""

    def test_table_flag_equivalent_to_positional(self, table_path, capsys):
        assert main(["lookup", "--table", table_path, "10.1.2.3"]) == 0
        assert "FIB[1]" in capsys.readouterr().out
        assert main(["info", "--table", table_path]) == 0
        assert main(["verify", "--table", table_path]) == 0
        assert main(["bench", "--table", table_path, "--queries", "1000",
                     "--repeats", "1", "--algorithm", "Poptrie18"]) == 0

    def test_positional_and_flag_conflict(self, table_path, capsys):
        assert main(["lookup", table_path, "10.1.2.3",
                     "--table", "/elsewhere/other.txt"]) == 2
        assert "one table" in capsys.readouterr().err

    def test_missing_table_is_a_usage_error(self, capsys):
        # The lone positional satisfies `addresses`; no table remains.
        assert main(["lookup", "10.1.2.3"]) == 2
        assert "table is required" in capsys.readouterr().err
        assert main(["info"]) == 2
        assert "table is required" in capsys.readouterr().err

    def test_bench_algorithm_filter(self, table_path, capsys):
        assert main(["bench", table_path, "--queries", "1000",
                     "--repeats", "1", "--algorithm", "Poptrie18",
                     "--algorithm", "SAIL"]) == 0
        out = capsys.readouterr().out
        assert "Poptrie18" in out and "SAIL" in out
        assert "DIR-24-8" not in out

    def test_bench_unknown_algorithm(self, table_path, capsys):
        assert main(["bench", table_path, "--algorithm", "NoSuch"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err


class TestServeLoadgen:
    def test_serve_then_loadgen_roundtrip(self, table_path, tmp_path, capsys):
        """Full cross-process style round trip, in one process: serve in a
        thread, drive it with the loadgen subcommand, assert clean exit."""
        import json
        import socket
        import subprocess
        import sys

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--table", table_path,
             "--port", str(port)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            assert "serving" in server.stdout.readline()
            report_path = str(tmp_path / "report.json")
            code = main(["loadgen", "--port", str(port),
                         "--duration", "0.5", "--rate", "400",
                         "--connections", "2", "--batch", "4",
                         "--swap-mid-run", "--json", report_path])
            assert code == 0
            out = capsys.readouterr().out
            assert "0 errors" in out and "0 mismatched" in out
            with open(report_path) as stream:
                report = json.load(stream)
            assert report["errors"] == 0
            assert report["completed"] == report["sent"] > 0
            assert report["swaps_observed"] >= 1  # OP_RELOAD hot swap landed
        finally:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()

    def test_loadgen_connection_refused(self, capsys):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["loadgen", "--port", str(port),
                     "--duration", "0.1"]) == 1
        assert "error" in capsys.readouterr().err


class TestGenerateIPv6:
    def test_ipv6_table(self, tmp_path, capsys):
        out = str(tmp_path / "v6.txt")
        assert main(["generate", "--routes", "150", "--nexthops", "8",
                     "--ipv6", "-o", out]) == 0
        rib = tableio.load_table(out)
        assert rib.width == 128 and len(rib) == 150

    def test_ipv6_lookup_via_text_table(self, tmp_path, capsys):
        out = str(tmp_path / "v6.txt")
        main(["generate", "--routes", "100", "--nexthops", "4", "--ipv6",
              "-o", out])
        rib = tableio.load_table(out)
        prefix, hop = next(iter(rib.routes()))
        from repro.net.ip import format_address

        text = format_address(prefix.value, 128)
        assert main(["lookup", out, text]) == 0
        assert f"FIB[{hop}]" in capsys.readouterr().out
