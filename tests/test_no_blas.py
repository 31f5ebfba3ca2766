"""The package keeps BLAS out of its hot loops.

A matrix product (`@`, `np.dot` and kin, `np.linalg`) goes to BLAS, whose
helper threads spin on the other core between calls; under `--jobs` the
workers' helpers then fight over the cores and the run is slower than
serial.  Because the package makes no BLAS call, `xiverify.cli` can start
OpenBLAS with one thread (OPENBLAS_NUM_THREADS=1 unless the environment
sets it) at no cost: this ban is what makes that default safe.  The
guard walks the package source for any such call.  The value tests check
the row-sum reductions that replace `@` against a reference `@` product
(the tests may use BLAS; only the package may not).
"""

import ast
import pathlib

import numpy as np
import pytest

import xiverify
from xiverify import quad, specfun

PACKAGE = pathlib.Path(xiverify.__file__).parent
BLAS_CALLS = {"dot", "matmul", "vdot", "inner", "tensordot", "vecdot",
              "einsum", "linalg"}


def _blas_uses(tree):
    """(line, what) for every matrix product or BLAS-backed numpy name."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.MatMult):
            hits.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_CALLS:
            hits.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in BLAS_CALLS:
            hits.append((node.lineno, node.id))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names]
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            for name in names:
                if BLAS_CALLS & set(name.split(".")):
                    hits.append((node.lineno, name))
    return hits


def test_guard_sees_every_form():
    src = ("import numpy.linalg\nfrom numpy import einsum\n"
           "a @ b\nc @= d\nnp.dot(a, b)\nx.dot(b)\nnp.linalg.solve(a, b)\n"
           "np.vecdot(a, b)\ninner(a, b)\nnp.sum(a * b, axis=1)\n")
    lines = sorted({line for line, _ in _blas_uses(ast.parse(src))})
    assert lines == list(range(1, 10))


def test_package_never_calls_blas():
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        hits += ["%s:%d %s" % (path.name, line, what)
                 for line, what in _blas_uses(tree)]
    assert hits == []


# a height whose batch takes n terms of the eta series
ETA_HEIGHTS = {60: 20.0, 200: 184.0, 380: 385.5}


@pytest.mark.parametrize("m,n", [(1, 60), (40, 200), (3000, 380)])
def test_zeta_eta_matches_matrix_product(m, n):
    rng = np.random.default_rng(m + n)
    height = ETA_HEIGHTS[n]
    z = rng.uniform(0.5, 3.0, m) + 1j * rng.uniform(-height, height, m)
    z[0] = z[0].real + 1j * height
    assert specfun._eta_terms_needed("zeta", height) == n
    e, dn = specfun._eta_coefficients(n)
    powers = np.exp(np.outer(-z, np.log(np.arange(1.0, n + 1.0))))
    scale = dn * (1.0 - np.exp((1.0 - z) * np.log(2.0)))
    want = -(powers @ e) / scale
    # relative to the sum of the terms' magnitudes: the sum cancels, so
    # a reordered reduction can only be held to that
    size = (np.abs(powers) @ np.abs(e)) / np.abs(scale)
    assert np.max(np.abs(specfun.zeta(z) - want) / size) <= 1e-14


@pytest.mark.parametrize("rows", [1, 64, 3000])
def test_panel_rule_matches_matrix_product(rows):
    # integrate_tabulated's reduction: the rows of weight times kernel
    # summed, then each level's terms, against h (w dt/du) @ kernel rows
    freqs = np.linspace(0.0, 2.0, rows)

    def kernel(t):
        return np.exp(1j * freqs[:, None] * t) / (1.0 + t * t)

    table = quad.NodeTable(lambda t: np.exp(-0.05 * t))
    res = quad.integrate_tabulated(kernel, table, 1.0)
    t, jw, _ = (np.concatenate(parts) for parts in zip(
        *(table.batch(L) for L in range(quad._DE_START + 1))))
    y = kernel(t)
    h = quad._DE_H0 / 2 ** quad._DE_START
    want = h * (np.ones(rows) @ y @ jw)
    size = h * (np.ones(rows) @ np.abs(y) @ jw)
    assert res.evaluations == t.size
    assert abs(res.value - want) / size <= 1e-14
