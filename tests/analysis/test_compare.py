"""Sweep comparison tests."""

from __future__ import annotations

import pytest

from repro.analysis.compare import compare_sweeps
from repro.core.results import Measurement, SweepResult


def m(scheme, size, time):
    return Measurement(
        scheme=scheme, label=scheme, message_bytes=size, time=time,
        min_time=time, max_time=time, std=0.0, dismissed=0, verified=True,
    )


def sweep(scale: float, *, schemes=("reference", "copying"), sizes=(1000, 10_000)):
    s = SweepResult(platform=f"x{scale}")
    for scheme in schemes:
        for size in sizes:
            s.add(m(scheme, size, scale * size / 1e9))
    return s


class TestCompareSweeps:
    def test_identical_sweeps(self):
        cmp = compare_sweeps(sweep(1.0), sweep(1.0))
        assert cmp.max_abs_deviation() == pytest.approx(0.0)
        for scheme in ("reference", "copying"):
            for _size, ratio in cmp.ratios(scheme):
                assert ratio == pytest.approx(1.0)

    def test_uniform_slowdown_detected(self):
        cmp = compare_sweeps(sweep(1.0), sweep(2.0))
        assert cmp.max_abs_deviation() == pytest.approx(1.0)
        worst = cmp.worst_regression()
        assert worst is not None and worst[2] == pytest.approx(2.0)

    def test_common_cells_only(self):
        a = sweep(1.0, sizes=(1000, 10_000))
        b = sweep(1.0, sizes=(10_000, 100_000))
        cmp = compare_sweeps(a, b)
        assert [s for s, _, _ in cmp.cells["reference"]] == [10_000]

    def test_disjoint_schemes(self):
        a = sweep(1.0, schemes=("reference",))
        b = sweep(1.0, schemes=("copying",))
        cmp = compare_sweeps(a, b)
        assert cmp.cells == {}
        assert cmp.worst_regression() is None
        assert cmp.max_abs_deviation() == 0.0

    def test_render(self):
        cmp = compare_sweeps(sweep(1.0), sweep(1.5), label_a="base", label_b="tuned")
        text = cmp.render()
        assert "tuned / base" in text
        assert "1.50" in text
        assert "reference" in text

    def test_render_with_missing_cells(self):
        a = sweep(1.0)
        b = sweep(1.0, sizes=(1000,))
        b.add(m("reference", 99_999, 1.0))
        text = compare_sweeps(a, b).render()
        assert "-" in text


class TestCompareCli:
    def test_cli_compare(self, tmp_path, capsys):
        from repro.cli import main

        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        sweep(1.0).save(a_path)
        sweep(2.0).save(b_path)
        assert main(["compare", str(a_path), str(b_path)]) == 0
        out = capsys.readouterr().out
        assert "2.00" in out and "largest ratio" in out

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        a_path = tmp_path / "a.json"
        sweep(1.0).save(a_path)
        with pytest.raises(SystemExit) as exc:
            main(["compare", str(a_path), str(tmp_path / "missing.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert sum("error:" in line for line in err.splitlines()) == 1
        last = err.strip().splitlines()[-1]
        assert "error: argument sweep_b" in last and "missing.json" in last

    @pytest.mark.parametrize("content", [
        "",                      # empty: not JSON at all
        '{"runs": []}',          # a JSON object that is not a sweep
        "[1, 2]",
        '{"platform": "x", "measurements": [{"scheme": "reference"}]}',
    ])
    def test_file_that_is_not_a_sweep_is_one_error_line(self, tmp_path, capsys,
                                                         content):
        from repro.cli import main

        a_path, bad = tmp_path / "a.json", tmp_path / "bad.json"
        sweep(1.0).save(a_path)
        bad.write_text(content)
        assert main(["compare", str(a_path), str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and "bad.json" in lines[0]
