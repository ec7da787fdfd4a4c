"""check_consensus_conditions against the two-solve certification it replaced.

The oracle solves W and W - J separately with the general eigensolver.
The package solves W once, with the symmetric solver when W equals its
transpose, and reads rho(W - J) off spec(W) when W is doubly stochastic.
"""

import numpy as np
import pytest
from conftest import FIFTY_NODE_KINDS, fifty_node_graph, small_graph_family

from gossipsim import build_topology, check_consensus_conditions, expected_weight_matrix
from gossipsim.analysis import SPECTRAL_TOL
from gossipsim.rules import RuleVariant, UpdateRule

#: largest gap allowed between the package's lambda2 / rho(W - J) and the oracle's
ORACLE_TOL = 1e-12

FLAGS = ("row_stochastic", "column_stochastic", "lambda2_below_one",
         "rho_centered_below_one", "certified_consensus", "certified_average")


def two_solve_certification(w: np.ndarray, tol: float = SPECTRAL_TOL) -> dict:
    """The certification as it stood before the single solve: general
    eigvals on W for lambda2 and on a dense W - J for rho."""
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    ones = np.ones(n)
    row_ok = bool(np.abs(w @ ones - ones).max() <= tol)
    col_ok = bool(np.abs(ones @ w - ones).max() <= tol)
    mods = np.sort(np.abs(np.linalg.eigvals(w)))[::-1]
    if len(mods) < 2:
        lam2 = 0.0
    else:
        below = mods[mods < mods[0] - tol]
        lam2 = float(mods[1] if len(below) == 0 else below[0])
    rho_c = float(np.abs(np.linalg.eigvals(w - np.full((n, n), 1.0 / n))).max())
    lam2_ok = lam2 < 1.0 - tol
    rho_ok = rho_c < 1.0 - tol
    return dict(row_stochastic=row_ok, column_stochastic=col_ok,
                lambda2=lam2, lambda2_below_one=lam2_ok,
                rho_centered=rho_c, rho_centered_below_one=rho_ok,
                certified_consensus=row_ok and lam2_ok,
                certified_average=row_ok and lam2_ok and col_ok and rho_ok)


def assert_matches_oracle(w: np.ndarray) -> None:
    rep = check_consensus_conditions(w)
    want = two_solve_certification(w)
    assert abs(rep.lambda2 - want["lambda2"]) <= ORACLE_TOL
    assert abs(rep.rho_centered - want["rho_centered"]) <= ORACLE_TOL
    assert {f: getattr(rep, f) for f in FLAGS} == {f: want[f] for f in FLAGS}


def rule_cases(name, g):
    for variant in RuleVariant:
        if variant is RuleVariant.PAIRWISE_BASELINE and g.directed:
            continue
        yield pytest.param(g, variant, id=f"{name}{g.node_count}-{variant.value}")


ORACLE_CASES = [
    *(c for name, g in small_graph_family() for c in rule_cases(name, g)),
    *rule_cases("circular_directed", build_topology("circular_directed", 7)),
    *(c for kind in FIFTY_NODE_KINDS for c in rule_cases(kind, fifty_node_graph(kind))),
]


@pytest.mark.parametrize("g, variant", ORACLE_CASES)
def test_expected_matrix_matches_two_solve_oracle(g, variant):
    assert_matches_oracle(expected_weight_matrix(g, UpdateRule(variant)))


@pytest.fixture
def solver_calls(monkeypatch):
    """Names of the numpy eigensolvers called, in order."""
    calls = []
    for name in ("eigvals", "eigvalsh"):
        def spy(m, _real=getattr(np.linalg, name), _name=name):
            calls.append(_name)
            return _real(m)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


class TestSolverBranches:
    def test_negative_eigenvalue_counts_by_modulus(self, solver_calls):
        rep = check_consensus_conditions(np.diag([1.0, -0.99, 0.3]))
        assert rep.lambda2 == pytest.approx(0.99, abs=1e-15)
        assert set(solver_calls) == {"eigvalsh"}

    def test_swap_is_not_certified(self, solver_calls):
        rep = check_consensus_conditions(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert rep.lambda2 == pytest.approx(1.0, abs=1e-15)
        assert rep.rho_centered == pytest.approx(1.0, abs=1e-15)
        assert not rep.certified_consensus and not rep.certified_average
        assert solver_calls == ["eigvalsh"]

    def test_identity_keeps_centered_radius_one(self, solver_calls):
        rep = check_consensus_conditions(np.eye(3))
        assert rep.rho_centered == pytest.approx(1.0, abs=1e-15)
        assert not rep.rho_centered_below_one
        assert solver_calls == ["eigvalsh"]

    def test_nonsymmetric_doubly_stochastic_solves_once(self, solver_calls):
        rng = np.random.default_rng(3)
        perms = [np.eye(5)[rng.permutation(5)] for _ in range(3)]
        w = 0.5 * perms[0] + 0.3 * perms[1] + 0.2 * perms[2]
        assert not np.array_equal(w, w.T)
        assert_matches_oracle(w)
        assert solver_calls.count("eigvalsh") == 0
        assert solver_calls.count("eigvals") == 1 + 2  # the package's one, the oracle's two

    def test_row_only_stochastic_takes_fallback(self, solver_calls):
        w = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.0, 1.0, 0.0]])
        rep = check_consensus_conditions(w)
        assert rep.row_stochastic and not rep.column_stochastic
        assert solver_calls == ["eigvals", "eigvals"]
        assert_matches_oracle(w)

    def test_one_node_has_centered_radius_zero(self, solver_calls):
        rep = check_consensus_conditions(np.array([[1.0]]))
        assert rep.rho_centered == 0.0
        assert rep.lambda2 == 0.0
        assert solver_calls == ["eigvalsh"]


SYMMETRIC_GRAPHS = [*small_graph_family(), ("random_geometric", fifty_node_graph("random_geometric"))]


@pytest.mark.parametrize("variant", [RuleVariant.NEIGHBORHOOD_SET, RuleVariant.PAIRWISE_BASELINE])
def test_undirected_expected_matrices_are_exactly_symmetric(variant):
    """spectra takes the symmetric solver only on a bit-for-bit symmetric
    matrix, so the scatter in expected_weight_matrix must keep W = W^T."""
    for name, g in SYMMETRIC_GRAPHS:
        w = expected_weight_matrix(g, UpdateRule(variant))
        assert np.array_equal(w, w.T), f"{name} n={g.node_count}"
