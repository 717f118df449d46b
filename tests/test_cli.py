import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from krylov.cli import load_config, main
from krylov.core import LinearOperator
from krylov.errors import (
    DimensionTooLarge,
    InvalidSpec,
    KrylovError,
    NotSymmetric,
    ParseError,
)
from krylov.experiments import list_experiments, run_experiment
from krylov.matrices import (
    DENSE_ORACLE_LIMIT,
    ClusterPerturbed,
    ExplicitEigenvalues,
    GradedSpectrum,
    MatrixMarketFile,
    TwoIntervalSpectrum,
    generate_operator,
    load_matrix_market,
    parse_matrix_spec,
)
from oracles import optimal_ksm_error


class TestMatrixGeneration:
    def test_explicit(self):
        gen = generate_operator(ExplicitEigenvalues((3.0, 1.0, 2.0)))
        np.testing.assert_allclose(gen.eigenvalues, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(
            gen.operator.to_dense(), np.diag([1.0, 2.0, 3.0])
        )

    def test_graded_endpoints(self):
        spec = GradedSpectrum(d=48, lam_min=1e-3, lam_max=1.0, rho=0.9)
        vals = spec.eigenvalues()
        assert vals[0] == pytest.approx(1e-3)
        assert vals[-1] == pytest.approx(1.0)
        assert np.all(np.diff(vals) > 0)

    def test_graded_interior_value(self):
        # lam_i = lam_min + (i-1)/(d-1)(lam_max - lam_min) rho^(d-i)
        spec = GradedSpectrum(d=4, lam_min=0.0, lam_max=3.0, rho=0.5)
        vals = spec.eigenvalues()
        np.testing.assert_allclose(vals, [0.0, 0.25, 1.0, 3.0], atol=1e-14)

    def test_two_interval(self):
        spec = TwoIntervalSpectrum(d=6, a=-3, b=-1, c=1, d_right=3)
        vals = spec.eigenvalues()
        assert (vals < 0).sum() == 3
        assert vals.min() == -3 and vals.max() == 3

    def test_two_interval_invalid(self):
        with pytest.raises(InvalidSpec):
            TwoIntervalSpectrum(d=6, a=-1, b=1, c=0, d_right=3).eigenvalues()

    def test_cluster_perturbed_extremes(self):
        base = ExplicitEigenvalues((1.0, 2.0))
        spec = ClusterPerturbed(base, cluster_size=3, cluster_width=6e-14)
        gen = generate_operator(spec)
        vals = gen.eigenvalues
        assert vals.size == 6
        assert abs(vals[0] - (1.0 - 3e-14)) <= 1e-16
        assert abs(vals[-1] - (2.0 + 3e-14)) <= 1e-16

    def test_cluster_of_one_is_the_base(self):
        base = ExplicitEigenvalues((3.0, 1.0, 2.0))
        spec = ClusterPerturbed(base, cluster_size=1, cluster_width=0.5)
        assert np.array_equal(spec.eigenvalues(), [3.0, 1.0, 2.0])

    def test_rotation_preserves_spectrum_and_symmetry(self):
        spec = ExplicitEigenvalues((1.0, 2.0, 5.0), rotation_seed=7)
        gen = generate_operator(spec)
        M = gen.operator.to_dense()
        assert np.abs(M - M.T).max() <= 1e-12
        np.testing.assert_allclose(np.linalg.eigvalsh(M), [1.0, 2.0, 5.0], atol=1e-10)
        assert np.abs(M - np.diag([1.0, 2.0, 5.0])).max() > 0.1

    def test_rotation_deterministic(self):
        spec = ExplicitEigenvalues((1.0, 2.0), rotation_seed=3)
        M1 = generate_operator(spec).operator.to_dense()
        M2 = generate_operator(spec).operator.to_dense()
        assert np.array_equal(M1, M2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "spec, message",
        [
            (ExplicitEigenvalues((float("nan"), 1.0, 2.0)), "finite"),
            (GradedSpectrum(d=10, lam_min=1.0, lam_max=float("inf")), "finite"),
            (TwoIntervalSpectrum(6, -float("inf"), -1.0, 1.0, 2.0), "finite"),
            (GradedSpectrum(d=10, lam_min=1.0, lam_max=2.0, rotation_seed=-1), "rotation_seed"),
            (TwoIntervalSpectrum(0, -3.0, -1.0, 1.0, 3.0), "d >= 1"),
            (TwoIntervalSpectrum(-4, -3.0, -1.0, 1.0, 3.0), "d >= 1"),
            # A cluster of a rotated base would silently be diagonal.
            (ClusterPerturbed(ExplicitEigenvalues((1.0, 2.0), rotation_seed=3), 2, 0.1),
             "rotation_seed"),
            (ExplicitEigenvalues(()), "at least one eigenvalue"),
            (GradedSpectrum(d=1, lam_min=1.0, lam_max=2.0), "d >= 2"),
            (ClusterPerturbed(ExplicitEigenvalues((1.0, 2.0)), 0, 0.1), "cluster parameters"),
            (ClusterPerturbed(ExplicitEigenvalues((1.0, 2.0)), 2, -0.1), "cluster parameters"),
        ],
        ids=[
            "explicit-nan", "graded-inf", "two-interval-inf", "negative-rotation-seed",
            "two-interval-d-zero", "two-interval-d-negative", "rotated-cluster-base",
            "explicit-empty", "graded-d-one", "cluster-size-zero", "cluster-width-negative",
        ],
    )
    def test_invalid_spec_rejected(self, spec, message):
        with pytest.raises(InvalidSpec, match=message):
            generate_operator(spec)


class TestMatrixMarket:
    def _write_toeplitz(self, path, n=10):
        # tridiagonal Toeplitz (2, -1): coordinate symmetric format
        lines = ["%%MatrixMarket matrix coordinate real symmetric"]
        entries = []
        for i in range(1, n + 1):
            entries.append((i, i, 2.0))
        for i in range(2, n + 1):
            entries.append((i, i - 1, -1.0))
        lines.append(f"{n} {n} {len(entries)}")
        for i, j, v in entries:
            lines.append(f"{i} {j} {v}")
        path.write_text("\n".join(lines) + "\n")

    def test_toeplitz_eigenvalue_oracle(self, tmp_path):
        # largest eigenvalue of tridiag(-1, 2, -1) of size n is
        # 2 - 2 cos(n pi / (n+1)).
        p = tmp_path / "toeplitz.mtx"
        self._write_toeplitz(p, 10)
        A = load_matrix_market(str(p))
        assert A.dim == 10
        vals = np.linalg.eigvalsh(A.to_dense())
        assert vals[-1] == pytest.approx(2 - 2 * np.cos(10 * np.pi / 11), abs=1e-12)

    def test_asymmetric_rejected(self, tmp_path):
        p = tmp_path / "bad.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 1.0\n1 2 5.0\n2 1 -5.0\n"
        )
        with pytest.raises(NotSymmetric):
            load_matrix_market(str(p))

    def test_nonsquare_rejected(self, tmp_path):
        p = tmp_path / "rect.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 3 1\n1 1 1.0\n"
        )
        with pytest.raises(ParseError):
            load_matrix_market(str(p))

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_entry_rejected(self, tmp_path, bad):
        p = tmp_path / "bad.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            f"2 2 2\n1 1 {bad}\n2 2 1.0\n"
        )
        with pytest.raises(ParseError, match="finite"):
            load_matrix_market(str(p))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_matrix_market("/nonexistent/file.mtx")

    def test_complex_rejected(self, tmp_path):
        p = tmp_path / "complex.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate complex general\n"
            "2 2 2\n1 1 1.0 0.5\n2 2 1.0 0.0\n"
        )
        with pytest.raises(ParseError, match="must be real"):
            load_matrix_market(str(p))

    def test_mildly_asymmetric_symmetrized_with_warning(self, tmp_path):
        M = np.array([[2.0, 1.0], [1.0 + 2.0**-52, 3.0]])
        p = tmp_path / "mild.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 4\n"
            + "".join(f"{i + 1} {j + 1} {float(M[i, j])!r}\n" for i in range(2) for j in range(2))
        )
        with pytest.warns(UserWarning, match="symmetrized"):
            A = load_matrix_market(str(p))
        dense = A.to_dense()
        assert np.array_equal(dense, dense.T)
        assert np.array_equal(dense, (M + M.T) * 0.5)


class TestOptimalKsmError:
    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(0)
        d = 30
        vals = np.geomspace(0.1, 1.0, d)
        A = LinearOperator.diagonal(vals)
        b = rng.standard_normal(d)
        errs = optimal_ksm_error(A, b, np.exp, 10)
        assert np.all(np.diff(errs) <= 1e-12)

    def test_zero_at_full_dimension(self):
        rng = np.random.default_rng(1)
        d = 8
        A = LinearOperator.diagonal(np.linspace(1, 2, d))
        b = rng.standard_normal(d)
        errs = optimal_ksm_error(A, b, np.exp, d + 2)
        assert errs[-1] <= 1e-10

    def test_dimension_cap(self):
        A = LinearOperator.diagonal(np.ones(2001))
        with pytest.raises(DimensionTooLarge):
            optimal_ksm_error(A, np.ones(2001), np.exp, 3)

    @pytest.mark.parametrize("d, k", [(30, 12), (8, 8), (8, 11), (5, 9)])
    def test_running_residual_matches_recomputation(self, d, k):
        # The residual kept as the basis grows equals, bit for bit, the
        # residual recomputed in full at every step, including the
        # steps past an exhausted basis (k > d).
        rng = np.random.default_rng(d + k)
        vals = np.geomspace(0.1, 1.0, d)
        A = LinearOperator.diagonal(vals)
        b = rng.standard_normal(d)
        dense = A.to_dense()
        w, V = np.linalg.eigh(dense)
        target = V @ (np.exp(w) * (V.T @ b))
        ref = np.empty(k)
        basis = []
        v = b / np.linalg.norm(b)
        exhausted = False
        for j in range(k):
            if not exhausted:
                x = v.copy()
                for _ in range(2):
                    for u in basis:
                        x = x - (u @ x) * u
                nx = np.linalg.norm(x)
                if nx <= 1e-12:
                    exhausted = True
                else:
                    basis.append(x / nx)
                    v = dense @ basis[-1]
            resid = target.copy()
            for u in basis:
                resid = resid - (u @ target) * u
            ref[j] = np.linalg.norm(resid)
        got = optimal_ksm_error(A, b, np.exp, k)
        assert got.tobytes() == ref.tobytes()
        assert exhausted == (k > d)


class TestParseMatrixSpec:
    def test_graded(self):
        spec = parse_matrix_spec("graded:d=48,lam_min=0.001,lam_max=1000,rho=0.8")
        assert spec == GradedSpectrum(48, 0.001, 1000.0, 0.8)

    def test_graded_default_rho(self):
        spec = parse_matrix_spec("graded:d=10,lam_min=1,lam_max=2")
        assert spec.rho == 0.9

    def test_explicit(self):
        spec = parse_matrix_spec("explicit:1,2,3")
        assert spec == ExplicitEigenvalues((1.0, 2.0, 3.0))

    def test_two_interval(self):
        spec = parse_matrix_spec("two_interval:d=40,a=-3,b=-1,c=1,d_right=3")
        assert spec == TwoIntervalSpectrum(40, -3.0, -1.0, 1.0, 3.0)

    def test_mm(self):
        spec = parse_matrix_spec("mm:some/file.mtx")
        assert spec == MatrixMarketFile("some/file.mtx")

    def test_rotation_seed(self):
        spec = parse_matrix_spec("graded:d=10,lam_min=1,lam_max=2,rotation_seed=5")
        assert spec.rotation_seed == 5

    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            parse_matrix_spec("wishart:d=10")

    def test_missing_key(self):
        with pytest.raises(InvalidSpec):
            parse_matrix_spec("graded:d=10,lam_min=1")

    def test_bad_values(self):
        with pytest.raises(InvalidSpec):
            parse_matrix_spec("explicit:1,foo,3")

    def test_values_given_twice(self):
        with pytest.raises(InvalidSpec, match="'values' given twice"):
            parse_matrix_spec("explicit:1,2,values=3")

    @pytest.mark.parametrize(
        "text, key",
        [
            ("graded:d=10,lam_min=1,lam_max=2,rh0=0.5", "rh0"),
            ("two_interval:d=40,a=-3,b=-1,c=1,d_right=3,bogus=1", "bogus"),
            ("graded:d=10,lam_min=1,lam_max=2,d_right=3", "d_right"),
        ],
    )
    def test_key_of_another_kind_rejected(self, text, key):
        # A misspelt key must not fall back to a default.
        with pytest.raises(InvalidSpec, match=f"unknown keys \\['{key}'\\]"):
            parse_matrix_spec(text)

    def test_bad_number(self):
        with pytest.raises(InvalidSpec):
            parse_matrix_spec("graded:d=ten,lam_min=1,lam_max=2")


class TestConfig:
    def _write(self, tmp_path, text):
        p = tmp_path / "exp.ini"
        p.write_text(text)
        return str(p)

    def test_minimal(self, tmp_path):
        cfg = load_config(self._write(tmp_path, "[experiment]\nname = cg-bounds\n"))
        assert cfg.experiment == "cg-bounds"
        assert cfg.seed == 0
        assert cfg.matrix is None

    def test_full(self, tmp_path):
        text = (
            "[experiment]\nname = fp-lanczos\nk = 30\nseed = 2\n"
            "[matrix]\nkind = graded\nd = 48\nlam_min = 0.001\n"
            "lam_max = 1.0\nrho = 0.8\n"
            "[output]\nout_dir = out\n"
        )
        cfg = load_config(self._write(tmp_path, text))
        assert cfg.k == 30
        assert cfg.seed == 2
        assert cfg.matrix == GradedSpectrum(48, 0.001, 1.0, 0.8)
        assert cfg.out_dir == "out"

    def test_unknown_section(self, tmp_path):
        with pytest.raises(KrylovError):
            load_config(
                self._write(tmp_path, "[experiment]\nname = x\n[extra]\na = 1\n")
            )

    def test_unknown_key(self, tmp_path):
        with pytest.raises(KrylovError):
            load_config(
                self._write(tmp_path, "[experiment]\nname = x\nbogus = 1\n")
            )

    def test_missing_name(self, tmp_path):
        with pytest.raises(KrylovError):
            load_config(self._write(tmp_path, "[experiment]\nk = 3\n"))

    def test_missing_file(self):
        with pytest.raises(KrylovError):
            load_config("/nonexistent/exp.ini")

    def test_explicit_rotation_seed(self, tmp_path):
        text = (
            "[experiment]\nname = fa-optimality\n"
            "[matrix]\nkind = explicit\nvalues = 1,2,3\nrotation_seed = 7\n"
        )
        cfg = load_config(self._write(tmp_path, text))
        assert cfg.matrix == ExplicitEigenvalues((1.0, 2.0, 3.0), rotation_seed=7)

    @pytest.mark.parametrize(
        "text, section",
        [
            (
                "graded:d=48,lam_min=0.001,lam_max=1000,rho=0.8",
                "kind = graded\nd = 48\nlam_min = 0.001\nlam_max = 1000\nrho = 0.8\n",
            ),
            (
                "graded:d=10,lam_min=1,lam_max=2",
                "kind = graded\nd = 10\nlam_min = 1\nlam_max = 2\n",
            ),
            (
                "two_interval:d=40,a=-3,b=-1,c=1,d_right=3",
                "kind = two_interval\nd = 40\na = -3\nb = -1\nc = 1\nd_right = 3\n",
            ),
            ("explicit:1,2,3", "kind = Explicit\nvalues = 1,2,3\n"),
            (
                "explicit:1,2,3,rotation_seed=7",
                "kind = explicit\nvalues = 1,2,3\nrotation_seed = 7\n",
            ),
            ("mm:some/file.mtx", "kind = mm\npath = some/file.mtx\n"),
        ],
        ids=["graded", "graded-default-rho", "two-interval", "explicit", "explicit-rotated", "mm"],
    )
    def test_spec_string_reads_as_matrix_section(self, tmp_path, text, section):
        # Spec strings and [matrix] sections go through one reader.
        path = self._write(tmp_path, f"[experiment]\nname = cg-bounds\n[matrix]\n{section}")
        assert parse_matrix_spec(text) == load_config(path).matrix

    @pytest.mark.parametrize(
        "matrix, key",
        [
            ("kind = explicit\nvalues = 1,2,3\nd = 3\n", "d"),
            ("kind = mm\npath = a.mtx\nrotation_seed = 1\n", "rotation_seed"),
            ("kind = graded\nd = 10\nlam_min = 1\nlam_max = 2\nvalues = 1\n", "values"),
        ],
        ids=["explicit", "mm", "graded"],
    )
    def test_key_of_another_kind_exits_2(self, tmp_path, capsys, matrix, key):
        path = self._write(tmp_path, f"[experiment]\nname = cg-bounds\n[matrix]\n{matrix}")
        assert main(["run", path, "--out-dir", str(tmp_path)]) == 2
        assert f"unknown keys ['{key}']" in capsys.readouterr().err


class TestExperiments:
    def test_registry_names(self):
        names = list_experiments()
        assert "fp-lanczos" in names
        assert "kpm-density" in names
        assert len(names) == 9

    def test_csv_byte_reproducible(self, tmp_path):
        from krylov.experiments import ExperimentConfig

        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            cfg = ExperimentConfig(
                experiment="cg-bounds", out_dir=str(out), seed=0
            )
            report = run_experiment(cfg)
            assert report.passed
        f1 = next(out1.iterdir())
        f2 = next(out2.iterdir())
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("field", ["k", "m"])
    def test_k_and_m_below_one_rejected(self, field):
        from krylov.experiments import ExperimentConfig

        for value in (0, -3):
            cfg = ExperimentConfig(experiment="kpm-density", **{field: value})
            with pytest.raises(InvalidSpec, match=f"{field} must be at least 1"):
                run_experiment(cfg)

    def test_negative_seed_rejected(self):
        from krylov.experiments import ExperimentConfig

        cfg = ExperimentConfig(experiment="slq-wasserstein", seed=-1)
        with pytest.raises(InvalidSpec, match="seed must be non-negative"):
            run_experiment(cfg)

    def test_csv_format(self, tmp_path):
        from krylov.experiments import ExperimentConfig

        cfg = ExperimentConfig(
            experiment="fa-formulas", out_dir=str(tmp_path), seed=0
        )
        report = run_experiment(cfg)
        text = report.csv_path and Path(report.csv_path).read_bytes().decode()
        lines = text.split("\n")
        assert lines[0].startswith("# figure:")
        assert lines[1].startswith("# config:")
        assert lines[2] == "experiment,figure_ref,series,k,value"
        assert "\r" not in text


class TestCliCommands:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "cg-bounds" in out

    def test_matrix_info(self, capsys):
        assert main(["matrix-info", "explicit:1,4"]) == 0
        out = capsys.readouterr().out
        assert "dim: 2" in out
        assert "condition_number: 4" in out

    def test_matrix_info_indefinite(self, capsys):
        assert main(["matrix-info", "explicit:-1,2"]) == 0
        out = capsys.readouterr().out
        assert "undefined" in out

    def test_matrix_info_matrix_market(self, tmp_path, capsys):
        p = tmp_path / "diag.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n"
            "1 1 0.5\n2 2 2\n3 3 4\n"
        )
        assert main(["matrix-info", f"mm:{p}"]) == 0
        out = capsys.readouterr().out
        assert "dim: 3" in out and "lam_min: 0.5" in out and "lam_max: 4" in out

    def test_matrix_info_refuses_a_file_above_the_dense_limit(
        self, tmp_path, capsys, monkeypatch
    ):
        # One error line and exit 2, before the operator is applied at all.
        n = DENSE_ORACLE_LIMIT + 1
        p = tmp_path / "big.mtx"
        lines = ["%%MatrixMarket matrix coordinate real symmetric", f"{n} {n} {n}"]
        lines += [f"{i} {i} {i}" for i in range(1, n + 1)]
        p.write_text("\n".join(lines) + "\n")
        apply, calls = LinearOperator.apply, [0]

        def counted(self, v):
            calls[0] += 1
            return apply(self, v)

        monkeypatch.setattr(LinearOperator, "apply", counted)
        assert main(["matrix-info", f"mm:{p}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert calls[0] == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "spec, message",
        [
            ("explicit:nan,1,2", "eigenvalues must be finite"),
            ("graded:d=10,lam_min=1,lam_max=inf", "eigenvalues must be finite"),
            ("graded:d=10,lam_min=1,lam_max=2,rotation_seed=-1", "rotation_seed"),
            ("mm:{tmp}/nan.mtx", "matrix entries must be finite"),
            ("two_interval:d=0,a=-3,b=-1,c=1,d_right=3", "d >= 1"),
            ("two_interval:d=-4,a=-3,b=-1,c=1,d_right=3", "d >= 1"),
            ("graded:d=10,lam_min=1,lam_max=2,d=20", "key 'd' given twice"),
        ],
        ids=[
            "explicit-nan", "graded-inf", "negative-rotation-seed", "mm-nan",
            "two-interval-d-zero", "two-interval-d-negative", "repeated-key",
        ],
    )
    def test_matrix_info_bad_spec_is_one_error_line(self, tmp_path, capsys, spec, message):
        (tmp_path / "nan.mtx").write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 nan\n2 2 1\n"
        )
        assert main(["matrix-info", spec.format(tmp=tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    def test_run_config(self, tmp_path, capsys):
        p = tmp_path / "exp.ini"
        p.write_text(
            "[experiment]\nname = cg-bounds\n[output]\nout_dir = %s\n"
            % str(tmp_path).replace("%", "%%")
        )
        assert main(["run", str(p)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_run_flag_overrides(self, tmp_path, capsys):
        p = tmp_path / "exp.ini"
        p.write_text("[experiment]\nname = cg-bounds\n")
        assert main(["run", str(p), "--out-dir", str(tmp_path), "--seed", "1"]) == 0

    def test_bad_config_exit_code(self, tmp_path, capsys):
        p = tmp_path / "exp.ini"
        p.write_text("[experiment]\nname = cg-bounds\nwhat = 1\n")
        assert main(["run", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_function_section_rejected(self, tmp_path, capsys):
        p = tmp_path / "exp.ini"
        p.write_text("[experiment]\nname = cg-bounds\n[function]\nname = exp\n")
        assert main(["run", str(p)]) == 2
        assert "unknown config section [function]" in capsys.readouterr().err

    def test_unknown_experiment_exit_code(self, tmp_path, capsys):
        p = tmp_path / "exp.ini"
        p.write_text("[experiment]\nname = not-an-experiment\n")
        assert main(["run", str(p)]) == 2

    @pytest.mark.parametrize(
        "text, flags, message",
        [
            ("[experiment]\nname = cg-bounds\nk = abc\n", [], "k must be an integer"),
            ("name = cg-bounds\n", [], "no section headers"),
            ("[experiment]\nname = cg-bounds\n", ["--k", "0"], "k must be at least 1"),
            ("[experiment]\nname = slq-wasserstein\n", ["--m", "0"], "m must be at least 1"),
            (
                "[experiment]\nname = slq-wasserstein\n"
                "[matrix]\nkind = explicit\nvalues = 1,2,inf,4\n",
                [],
                "eigenvalues must be finite",
            ),
            (
                "[experiment]\nname = slq-wasserstein\nseed = -1\n",
                [],
                "seed must be non-negative",
            ),
            (
                "[experiment]\nname = nearby-problem\n[matrix]\nkind = graded\nd = 32\n"
                "lam_min = 0.001\nlam_max = 1\nrho = 0.8\nrotation_seed = 3\n",
                [],
                "rotation_seed",
            ),
            (
                "[experiment]\nname = slq-wasserstein\n[matrix]\nvalues = 1,2,3\n",
                [],
                "matrix section needs a 'kind' key",
            ),
        ],
        ids=[
            "k-not-an-integer", "no-section-header", "k-zero", "m-zero",
            "infinite-eigenvalue", "negative-seed", "rotated-cluster-base",
            "matrix-without-kind",
        ],
    )
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, text, flags, message):
        # No traceback, and k or m of 0 never falls back to the default.
        p = tmp_path / "exp.ini"
        p.write_text(text)
        assert main(["run", str(p), "--out-dir", str(tmp_path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err
        assert list(tmp_path.iterdir()) == [p]

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "krylov.cli", "list-experiments"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "slq-wasserstein" in proc.stdout

    def test_closed_stdout_exits_quietly(self):
        # The read end is closed before the child starts, so its first
        # write to stdout fails: no race with a reader such as ``head``.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "krylov.cli", "list-experiments"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
