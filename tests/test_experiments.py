import numpy as np
import pytest

from krylov import matrices
from krylov.core import LinearOperator
from krylov.errors import DimensionTooLarge, InvalidSpec, KrylovError
from krylov.experiments import (
    ExperimentConfig,
    list_experiments,
    run_experiment,
)
from krylov.matrices import (
    DENSE_ORACLE_LIMIT,
    ExplicitEigenvalues,
    GeneratedOperator,
    GradedSpectrum,
    MatrixMarketFile,
    generate_operator,
    parse_matrix_spec,
)
from oracles import optimal_ksm_error


@pytest.mark.parametrize("name", list_experiments())
def test_experiment_passes_with_defaults(name, tmp_path):
    report = run_experiment(
        ExperimentConfig(experiment=name, out_dir=str(tmp_path))
    )
    assert report.assertions, "experiment must assert something"
    failed = [a.name for a in report.assertions if not a.passed]
    assert report.passed, f"failed assertions: {failed}"
    assert report.csv_path is not None


# Operator applications per default run: every Lanczos prefix is formed
# once, and no reference materializes the operator, because each is
# computed from the exact eigenpairs the generated spec carries.
# cg-bounds reads CG iterates only and computes no residual (40),
# indefinite reads CG and MINRES off one stored run and pays each its
# residuals (40 + 2 x 40), slq-wasserstein reads its degrees 8 and 16 off
# each probe's 32-step run (8 x 32), fa-optimality reads the optimal
# baseline off the basis of its one FULL run (40), and kpm-density damps
# the undamped recurrence's coefficients instead of recomputing its
# moments and checks its given interval on the probe's own run, on both
# coefficient paths (10 + 10).  786 in all.
OPERATOR_CALLS = {
    "cg-bounds": 40,
    "fa-formulas": 60,
    "fa-optimality": 40,
    "fp-lanczos": 80,
    "indefinite": 120,
    "kpm-density": 20,
    "moment-stability": 80,
    "nearby-problem": 90,
    "slq-wasserstein": 256,
}


def _count_operator_calls(monkeypatch):
    apply = LinearOperator.apply
    calls = [0]

    def counted(self, v):
        calls[0] += 1
        return apply(self, v)

    monkeypatch.setattr(LinearOperator, "apply", counted)
    return calls


def test_default_operator_call_budget(monkeypatch):
    calls = _count_operator_calls(monkeypatch)
    got = {}
    for name in list_experiments():
        calls[0] = 0
        run_experiment(ExperimentConfig(experiment=name))
        got[name] = calls[0]
    assert got == OPERATOR_CALLS


def test_unknown_experiment_raises():
    with pytest.raises(KrylovError):
        run_experiment(ExperimentConfig(experiment="nope"))


def test_config_hash_stable_under_out_dir(tmp_path):
    a = ExperimentConfig(experiment="cg-bounds", out_dir=None)
    b = ExperimentConfig(experiment="cg-bounds", out_dir=str(tmp_path))
    assert a.config_hash() == b.config_hash()


def test_config_hash_changes_with_parameters():
    a = ExperimentConfig(experiment="cg-bounds", seed=0)
    b = ExperimentConfig(experiment="cg-bounds", seed=1)
    assert a.config_hash() != b.config_hash()


def test_csv_values_fixed_precision(tmp_path):
    report = run_experiment(
        ExperimentConfig(experiment="fp-lanczos", out_dir=str(tmp_path))
    )
    with open(report.csv_path) as fh:
        lines = [l for l in fh.read().split("\n") if l and not l.startswith("#")]
    header, rows = lines[0], lines[1:]
    assert header == "experiment,figure_ref,series,k,value"
    for row in rows:
        parts = row.split(",")
        assert len(parts) == 5
        float(parts[4])  # value column parses
        int(parts[3])  # step column parses


def _write_diagonal_mtx(path, vals):
    lines = [
        "%%MatrixMarket matrix coordinate real symmetric",
        f"{vals.size} {vals.size} {vals.size}",
    ]
    lines += [f"{i} {i} {v:.17g}" for i, v in enumerate(vals, start=1)]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", list_experiments())
def test_matrix_market_config_reports_or_raises_krylov_error(name, tmp_path):
    # A Matrix Market file carries no eigenpairs; experiments take them from
    # the dense operator, and any failure is a library error whose message
    # names what the experiment needs, not a Python class.
    vals = np.linspace(0.1, 1.0, 50)
    path = tmp_path / "diag50.mtx"
    _write_diagonal_mtx(path, vals)
    cfg = ExperimentConfig(experiment=name, matrix=MatrixMarketFile(str(path)))
    try:
        report = run_experiment(cfg)
    except KrylovError as exc:
        assert "<class" not in str(exc)
        return
    assert report.rows
    # On a diagonal file the references are those of the same explicit spectrum.
    ref = run_experiment(
        ExperimentConfig(experiment=name, matrix=ExplicitEigenvalues(tuple(vals)))
    )
    got = np.array([v for _, _, v in report.rows])
    want = np.array([v for _, _, v in ref.rows])
    assert [r[:2] for r in report.rows] == [r[:2] for r in ref.rows]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


KIND_SPECS = {
    "graded": "graded:d=48,lam_min=0.001,lam_max=1,rho=0.9",
    "two_interval": "two_interval:d=40,a=-3,b=-1,c=1,d_right=3",
    "explicit": "explicit:1,2,3,4,5,6",
}


@pytest.mark.parametrize("kind", sorted(KIND_SPECS))
@pytest.mark.parametrize("name", list_experiments())
def test_every_experiment_on_every_synthetic_kind(name, kind):
    # PASS or FAIL, or a library error whose message names what the
    # experiment needs, never a Python class.  Matrix Market files are
    # covered by the test above.
    spec = parse_matrix_spec(KIND_SPECS[kind])
    cfg = ExperimentConfig(experiment=name, matrix=spec)
    if (name, kind) == ("cg-bounds", "two_interval"):
        with pytest.raises(InvalidSpec, match="positive definite"):
            run_experiment(cfg)
        return
    try:
        report = run_experiment(cfg)
    except KrylovError as exc:
        assert "<class" not in str(exc)
    else:
        assert report.assertions


def test_matrix_market_above_dense_limit_raises(tmp_path):
    path = tmp_path / "big.mtx"
    _write_diagonal_mtx(path, np.linspace(1.0, 2.0, DENSE_ORACLE_LIMIT + 1))
    with pytest.raises(DimensionTooLarge):
        run_experiment(
            ExperimentConfig(experiment="cg-bounds", matrix=MatrixMarketFile(str(path)), k=2)
        )


def test_rotated_spec_carries_its_eigenvectors():
    gen = generate_operator(
        GradedSpectrum(d=40, lam_min=1e-2, lam_max=1.0, rho=0.9, rotation_seed=5)
    )
    Q, vals = gen.eigenvectors, gen.eigenvalues
    assert np.abs(Q.T @ Q - np.eye(40)).max() <= 1e-13
    dense = gen.operator.to_dense()
    assert np.abs(Q @ (vals[:, None] * Q.T) - dense).max() <= 1e-13
    assert generate_operator(ExplicitEigenvalues((1.0, 2.0))).eigenvectors is None


ROTATED_SPECS = {
    "cg-bounds": GradedSpectrum(d=100, lam_min=1.0, lam_max=1e4, rho=0.9, rotation_seed=3),
    "fa-optimality": GradedSpectrum(d=100, lam_min=1e-2, lam_max=1.0, rho=0.9, rotation_seed=3),
    "fa-formulas": GradedSpectrum(d=64, lam_min=1e-3, lam_max=1.0, rho=0.8, rotation_seed=3),
}


@pytest.mark.parametrize("name", sorted(ROTATED_SPECS))
def test_rotated_references_match_dense_path(name, monkeypatch):
    # References from the spec's own (vals, Q) against those from eigh of
    # the materialized operator, the path a Matrix Market file takes.
    cfg = ExperimentConfig(experiment=name, matrix=ROTATED_SPECS[name])
    exact = run_experiment(cfg)
    monkeypatch.setattr(
        matrices,
        "generate_operator",
        lambda spec: GeneratedOperator(generate_operator(spec).operator, None),
    )
    dense = run_experiment(cfg)
    assert exact.passed and dense.passed
    assert [r[:2] for r in exact.rows] == [r[:2] for r in dense.rows]
    got = np.array([v for _, _, v in exact.rows])
    want = np.array([v for _, _, v in dense.rows])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize(
    "spec",
    [
        GradedSpectrum(d=100, lam_min=1e-2, lam_max=1.0, rho=0.9),  # the default
        ROTATED_SPECS["fa-optimality"],
    ],
    ids=["default", "rotated"],
)
def test_fa_optimality_baseline_matches_oracle(spec):
    # The baseline read off the FULL run's basis against the oracle's own
    # Arnoldi basis of the dense operator, and never above the FA error.
    report = run_experiment(ExperimentConfig(experiment="fa-optimality", matrix=spec))
    series = {}
    for name, _, value in report.rows:
        series.setdefault(name, []).append(value)
    opt, fa = np.array(series["optimal_error"]), np.array(series["fa_error"])
    gen = generate_operator(spec)
    b = np.ones(gen.operator.dim) / np.sqrt(gen.operator.dim)
    oracle = optimal_ksm_error(gen.operator, b, np.sqrt, opt.size)
    w, V = np.linalg.eigh(gen.operator.to_dense())
    target_norm = np.linalg.norm(V @ (np.sqrt(w) * (V.T @ b)))
    assert opt.size == 40
    np.testing.assert_allclose(opt, oracle, rtol=0, atol=1e-13 * target_norm)
    assert np.all(opt <= fa)


def test_kpm_density_exact_measure_on_rotated_spec():
    # The probe's exact spectral measure weighs each eigenvalue by the
    # probe's squared eigenbasis coordinate, not by its squared entry.
    spec = ExplicitEigenvalues(
        tuple(np.cos((np.arange(1, 201) - 0.5) * np.pi / 200)), rotation_seed=3
    )
    report = run_experiment(ExperimentConfig(experiment="kpm-density", matrix=spec))
    assert report.passed, [a for a in report.assertions if not a.passed]


def test_large_generated_spec_needs_no_dense_oracle(monkeypatch):
    # d = 3000 is above DENSE_ORACLE_LIMIT; only the Krylov methods apply
    # the operator.
    spec = GradedSpectrum(d=3000, lam_min=1e-2, lam_max=1.0, rho=0.9)
    calls = _count_operator_calls(monkeypatch)
    got = {}
    for name in ("cg-bounds", "fa-formulas", "fa-optimality"):
        calls[0] = 0
        report = run_experiment(ExperimentConfig(experiment=name, matrix=spec, k=20))
        assert report.rows
        got[name] = calls[0]
    assert got == {"cg-bounds": 20, "fa-formulas": 20, "fa-optimality": 20}
