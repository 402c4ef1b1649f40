import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from harmap.catalog import CatalogTag, make
from harmap.cli import dump_map, load_map, main
from harmap.harmonic import HarmonicMap
from harmap.series import AnalyticSeries

finite = st.floats(allow_nan=False, allow_infinity=False)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestExitCodes:
    @pytest.mark.parametrize(
        "text",
        [
            '{"order": 2, "h": [[1, 0], [NaN, 0]]}',
            '{"order": 2, "h": [[1, 0], [0, Infinity]]}',
            '{"order": 2, "h": [[1, 0], [0, 0]], "g": [[0, 0], [-Infinity, 0]]}',
            '{"order": 2, "h": [[1, 0], [1e400, 0]]}',
        ],
    )
    def test_non_finite_coefficients(self, text, tmp_path, capsys):
        path = _write(tmp_path / "map.json", text)
        assert main(["classify", "--class", "R_H0", "--input", path]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "finite" in err

    @pytest.mark.parametrize("order", ["true", "false", "0", "2.0", '"2"', "null"])
    def test_order_must_be_a_positive_integer(self, order, tmp_path, capsys):
        path = _write(tmp_path / "map.json", f'{{"order": {order}, "h": [[1, 0], [0, 0]]}}')
        assert main(["classify", "--class", "R_H0", "--input", path]) == 2
        assert "'order' must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("cls", ["R_H0_G", "F_H0_G"])
    def test_reference_classes_need_ref_map(self, cls, capsys):
        assert main(["classify", "--class", cls, "--input", "koebe", "--order", "16"]) == 2
        assert "--ref-map is required" in capsys.readouterr().err

    @pytest.mark.parametrize("cls", ["R_H0", "W_H0", "F_H0", "U_H0", "V_H0", "S_R"])
    def test_ref_map_refused_outside_reference_classes(self, cls, capsys):
        argv = ["classify", "--class", cls, "--ref-map", "koebe", "--input", "koebe", "--order", "16"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: --ref-map applies only to the _G classes")
        assert captured.out == ""

    @pytest.mark.parametrize("cls", ["R_H0_G", "F_H0_G"])
    def test_singular_reference_is_an_input_error(self, cls, tmp_path, capsys):
        # G' = 1 - 5z vanishes at z = 0.2, inside the certifying circle
        ref = _write(tmp_path / "ref.json", '{"order": 2, "h": [[1, 0], [-2.5, 0]]}')
        argv = ["classify", "--class", cls, "--ref-map", ref, "--input", "koebe", "--order", "16"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: reference derivative vanishes on or inside")
        assert captured.out == ""

    def test_member_and_non_member(self, tmp_path, capsys):
        inside = _write(tmp_path / "inside.json", dump_map(make(CatalogTag.U_SHARP_CONJ, 8)))
        assert main(["classify", "--class", "U_H0", "--input", inside]) == 0
        assert main(["classify", "--class", "V_H0", "--input", inside]) == 1
        out = capsys.readouterr().out
        assert "member=True" in out and "member=False" in out

    def test_W_class_on_an_order_two_map(self, tmp_path, capsys):
        path = _write(tmp_path / "map.json", '{"order": 2, "h": [[1, 0], [0.1, 0]]}')
        assert main(["classify", "--class", "W_H0", "--input", path]) == 0
        assert "status=member" in capsys.readouterr().out

    @pytest.mark.parametrize("order", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--class", "R_H0", "--input", "koebe"],
            ["classify", "--class", "R_H0", "--input", "MAP"],
            ["convolve", "--a", "koebe", "--b", "half_plane"],
            ["alexander", "--sign", "plus", "--input", "koebe"],
            ["radius", "--property", "convex", "--input", "koebe"],
            ["render", "--input", "koebe", "--radii", "0.5", "--out", "OUT"],
            ["catalog", "--tag", "koebe"],
        ],
    )
    def test_order_below_one_is_rejected(self, argv, order, tmp_path, capsys):
        path = _write(tmp_path / "map.json", dump_map(make(CatalogTag.KOEBE, 8)))
        argv = [{"MAP": path, "OUT": str(tmp_path / "out.svg")}.get(a, a) for a in argv]
        assert main(argv + ["--order", order]) == 2
        assert "argument --order: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out.svg").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_radius_tolerance_must_be_positive_and_finite(self, tol, capsys):
        argv = ["radius", "--property", "convex", "--input", "koebe", f"--tol={tol}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "tolerance must be positive and finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("suite", ["all", "FIG1", "T3.10"])
    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_verify_out_dir_checked_before_any_suite(self, suite, kind, tmp_path, capsys, monkeypatch):
        def no_suite(*args):
            raise AssertionError("a suite ran before --out-dir was checked")

        monkeypatch.setattr("harmap.cli.run_all", no_suite)
        monkeypatch.setattr("harmap.cli.run_suite", no_suite)
        out_dir = tmp_path / "out"
        if kind == "file":
            out_dir.write_text("", encoding="utf-8")
        assert main(["verify", "--suite", suite, "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and str(out_dir) in err


@st.composite
def harmonic_maps(draw):
    order = draw(st.integers(min_value=1, max_value=8))
    parts = [
        np.array([complex(draw(finite), draw(finite)) for _ in range(order)]) for _ in range(2)
    ]
    return HarmonicMap(AnalyticSeries(parts[0]), AnalyticSeries(parts[1]))


class TestRoundTrip:
    @given(f=harmonic_maps())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_dump_then_load_is_exact(self, f, tmp_path):
        path = _write(tmp_path / "map.json", dump_map(f))
        back = load_map(path)
        assert back.order == f.order
        assert back.h.coeffs.tobytes() == f.h.coeffs.tobytes()
        assert back.g.coeffs.tobytes() == f.g.coeffs.tobytes()

    def test_absent_g_is_zero(self, tmp_path):
        path = _write(tmp_path / "map.json", json.dumps({"order": 2, "h": [[1, 0], [0.5, 0]]}))
        f = load_map(path)
        assert not f.g.coeffs.any()
        np.testing.assert_array_equal(f.h.coeffs, [1, 0.5])
