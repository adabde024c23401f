"""``repro advise`` CLI tests (in-process via ``repro.cli.main``)."""

from __future__ import annotations

import pytest

from repro.cli import main


def test_advise_golden_output_64kb_skx(capsys):
    """The paper's stride-2 layout at 64 KB on Stampede2-skx: copying
    is the practical winner (section 5's conclusion), and the report
    carries every column the docs promise."""
    assert main(["advise", "--platform", "skx-impi", "--bytes", "65536"]) == 0
    out = capsys.readouterr().out
    assert "advise: 1 x vector(8192,1,2,DOUBLE) on skx-impi" in out
    assert "payload 65536 B in 8192 blocks" in out
    assert "vs reference" in out
    assert "* copying" in out
    assert "recommended: copying" in out
    assert out.strip().endswith("transport: network")


def test_advise_block_placement_co_locates_and_flips_to_shm(capsys):
    """With 16 ranks per node placed in blocks, ranks 0 and 1 share a
    node, so the advice is priced over the shm transport -- where the
    derived-type vector path gathers straight into the segment (one
    copy) and beats copying's extra bounce."""
    assert main(["advise", "--platform", "skx-impi", "--bytes", "65536",
                 "--ranks-per-node", "16", "--placement", "block"]) == 0
    out = capsys.readouterr().out
    assert "recommended: vector" in out
    assert "transport: shm" in out
    assert "co-located" in out


def test_advise_cyclic_placement_keeps_network_pricing(capsys):
    """Cyclic placement puts consecutive ranks on different nodes, so
    the recommendation must match the flat/off-node golden exactly."""
    assert main(["advise", "--platform", "skx-impi", "--bytes", "65536",
                 "--ranks-per-node", "16", "--placement", "cyclic"]) == 0
    out = capsys.readouterr().out
    assert "recommended: copying" in out
    assert "transport: network" in out
    assert "different nodes" in out


def test_advise_single_rank_per_node_is_the_flat_golden(capsys):
    """--ranks-per-node 1 means nobody is co-located: output must be
    byte-identical to the run without any placement flags."""
    assert main(["advise", "--platform", "skx-impi", "--bytes", "65536"]) == 0
    flat = capsys.readouterr().out
    assert main(["advise", "--platform", "skx-impi", "--bytes", "65536",
                 "--ranks-per-node", "1"]) == 0
    assert capsys.readouterr().out == flat


def test_advise_lists_every_candidate(capsys):
    assert main(["advise", "--bytes", "2048"]) == 0
    out = capsys.readouterr().out
    for key in ("copying", "buffered", "vector", "subarray", "onesided",
                "packing-element", "packing-vector"):
        assert key in out
    # reference is the yardstick, never the advice.
    assert "recommended: reference" not in out


@pytest.mark.parametrize("platform", ("skx-impi", "skx-mvapich2", "ls5-cray", "knl-impi"))
def test_advise_runs_on_every_platform(platform, capsys):
    assert main(["advise", "--platform", platform, "--bytes", "10000"]) == 0
    assert "recommended: " in capsys.readouterr().out


def test_advise_subarray_and_indexed_families(capsys):
    assert main(["advise", "--datatype", "subarray", "--bytes", "4096"]) == 0
    assert "subarray" in capsys.readouterr().out
    assert main(["advise", "--datatype", "indexed", "--bytes", "4096",
                 "--jitter", "0.4"]) == 0
    assert "indexed_block" in capsys.readouterr().out


def test_advise_jittered_indexed_reports_the_simulated_regularity(capsys):
    """Advice prices the pattern the simulator charges: a jittered
    indexed layout is irregular at every block count."""
    assert main(["advise", "--datatype", "indexed", "--bytes", "65536",
                 "--jitter", "0.4", "--stride", "4"]) == 0
    assert "regularity 0.82" in capsys.readouterr().out


def test_advise_unknown_datatype_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["advise", "--datatype", "graph"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'graph'" in err


def test_advise_unknown_platform_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["advise", "--platform", "cray-unobtainium"])
    assert exc.value.code == 2


def test_sweep_accepts_auto_scheme(capsys):
    code = main(["sweep", "--platform", "ideal", "--min-bytes", "1000",
                 "--max-bytes", "10000", "--per-decade", "1",
                 "--iterations", "2", "--no-flush", "--no-cache",
                 "--schemes", "reference", "auto"])
    out = capsys.readouterr().out
    assert code == 0
    assert "auto(" in out


def test_trace_accepts_auto_scheme(capsys):
    assert main(["trace", "auto", "--bytes", "2048"]) == 0
    out = capsys.readouterr().out
    assert "one auto ping-pong" in out
