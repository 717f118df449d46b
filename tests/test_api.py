"""The public surface of ``krylov`` is its contract: the names the package
exports and the parameter names, in order, of each exported function, each
exported class's constructor and each of its public methods.  A change to
any of them must show up here as a test diff.  Properties are listed with
``None``; an enum with its member names."""

import enum
import inspect
import types

import krylov

SURFACE = {
    "BlockKrylovDecomposition": (
        "basis", "block_diag", "block_offdiag", "initial_R", "block_widths",
        "termination",
    ),
    "BlockKrylovDecomposition.to_banded_dense": (),
    "BlockKrylovDecomposition.total_width": None,
    "ChebyshevExpansion": ("coefficients", "interval"),
    "ChebyshevExpansion.__call__": ("x",),
    "ChebyshevExpansion.degree": None,
    "DensityApprox": ("form", "measure", "interval", "coefficients"),
    "DensityApprox.cdf": ("x",),
    "DensityApprox.density": ("x",),
    "DensityApprox.integrate": ("g",),
    "DensityApprox.mass": (),
    "DiscreteMeasure": ("nodes", "weights"),
    "DiscreteMeasure.cdf": ("x",),
    "DiscreteMeasure.moment": ("degree",),
    "DiscreteMeasure.n_nodes": None,
    "DiscreteMeasure.total_mass": None,
    "IterateHistory": ("iterates", "residual_norms", "termination", "b_norm"),
    "IterateHistory.final": None,
    "IterateHistory.k": None,
    "JacksonWeights": ("rho",),
    "KrylovDecomposition": (
        "basis", "T", "trailing_beta", "next_vector", "b_norm", "termination",
    ),
    "KrylovDecomposition.k": None,
    "LinearOperator": ("dim", "matvec", "matmat"),
    "LinearOperator.__call__": ("v",),
    "LinearOperator.apply": ("v",),
    "LinearOperator.diagonal": ("diag",),
    "LinearOperator.from_matrix": ("A",),
    "LinearOperator.to_dense": (),
    "MatFuncResult": ("value", "k_used", "diagnostics"),
    "ProbeSampler": ("distribution", "seed"),
    "ProbeSampler.probe": ("index", "d"),
    "ReorthMode": ("NONE", "FULL"),
    "ShiftFamily": ("shifts", "weights"),
    "SymTridiagonal": ("alphas", "betas"),
    "SymTridiagonal.matvec": ("v",),
    "SymTridiagonal.principal": ("j",),
    "SymTridiagonal.size": None,
    "SymTridiagonal.to_dense": (),
    "TraceEstimate": ("estimate", "stderr", "n_probes", "n_skipped"),
    "TraceEstimate.flagged": None,
    "TridiagEig": ("eigenvalues", "eigenvectors"),
    "block_cg": ("A", "B", "k", "mode"),
    "block_lanczos": ("A", "B", "k", "mode"),
    "block_lanczos_fa": ("A", "B", "f", "k"),
    "block_lanczos_qf": ("A", "B", "f", "k"),
    "cdf_compare": ("mu", "quad"),
    "cg": ("A", "b", "k", "backend", "mode", "tol", "keep_iterates"),
    "cheb_approximant": ("f", "degree", "interval"),
    "cheb_eval": ("kind", "n", "x"),
    "chebyshev_bound": ("kind", "params", "k"),
    "control_variate_trace": (
        "A_func", "Atilde_trace", "Atilde_func", "d", "m", "sampler",
    ),
    "error_estimate_delay": ("history", "A", "d"),
    "fa_apriori_bound": ("f", "interval", "k", "b_norm"),
    "gauss_quadrature": ("M", "total_mass"),
    "hutchinson_trace": ("quad_form", "d", "m", "sampler"),
    "jackson_damping": ("k",),
    "kpm_density": ("A", "k", "interval", "damping", "coeff_method", "m", "sampler"),
    "krylov_grade": ("A", "b"),
    "lanczos": ("A", "b", "k", "mode"),
    "lanczos_fa": ("A", "b", "f", "k", "mode", "formula"),
    "lanczos_qf": ("A", "b", "f", "k", "mode"),
    "minres": ("A", "b", "k", "mode", "tol", "keep_iterates"),
    "modified_moments": ("measure", "count", "kind", "interval"),
    "multi_shift_solve": (
        "A", "b", "shifts", "k", "method", "mode", "keep_iterates", "tol",
    ),
    "preconditioned_solve": ("A", "M", "b", "k", "method", "mode"),
    "rational_apply": ("A", "b", "family", "k", "mode"),
    "slq_density": ("A", "k", "m", "sampler"),
    "slq_trace": ("A", "f", "k", "m", "sampler"),
    "stieltjes": ("measure", "k"),
    "sym_tridiag_eig": ("T",),
    "tridiag_apply_function": ("T", "f"),
    "tridiag_solve": ("T", "rhs", "shift"),
    "two_pass_lanczos_fa": ("A", "b", "f", "k", "checkpoint_stride"),
    "wasserstein": ("mu1", "mu2"),
}


def _params(fn) -> tuple:
    return tuple(p for p in inspect.signature(fn).parameters if p not in ("self", "cls"))


def _surface() -> dict:
    out = {}
    for name, obj in vars(krylov).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        if inspect.isfunction(obj):
            out[name] = _params(obj)
        elif issubclass(obj, enum.Enum):
            out[name] = tuple(obj.__members__)
        else:
            out[name] = _params(obj)
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__call__":
                    continue
                if isinstance(member, property):
                    out[f"{name}.{attr}"] = None
                elif isinstance(member, (classmethod, staticmethod)):
                    out[f"{name}.{attr}"] = _params(member.__func__)
                elif inspect.isfunction(member):
                    out[f"{name}.{attr}"] = _params(member)
    return out


def test_public_surface():
    assert _surface() == SURFACE
