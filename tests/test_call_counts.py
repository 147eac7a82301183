"""Call-count guards for the hot paths of the knop-sahi and capelli sweeps.

Each guard wraps a function with a counter and asserts how often it runs.
Nothing is timed, so the guards are deterministic: they fail when a change
brings back normalization in Q(kappa) where values at kappa = k are read off
the local expansion, or rebuilds an eigenvalue polynomial per block.
"""

import pytest

from capelli import eigenpoly as ep
from capelli import knopsahi as ks
from capelli import verify as vf
from capelli.partitions import PClass, classify, upto
from capelli.ratfunc import RatFunc, UniPoly


def _counter(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_singular_and_finite_parts_make_no_gcd(monkeypatch, k):
    singular = [lam for lam in upto(10) if classify(lam, k) is PClass.SINGULAR]
    assert singular
    for lam in singular:
        ks.ks_poly(lam)  # build (and normalize) outside the counted region
    gcd = _counter(monkeypatch, UniPoly, "gcd")
    for lam in singular:
        ks.sing_part(lam, k)
        ks.reg_part(lam, k)
    assert gcd == []


def test_ks_poly_normalizes_once_per_monomial(monkeypatch):
    build = ks.ks_poly.__wrapped__  # bypass the cache so every call builds
    for lam in upto(8):
        inits = _counter(monkeypatch, RatFunc, "__init__")
        body = build(lam).body
        assert len(inits) <= len(body.terms), lam
        monkeypatch.undo()


@pytest.mark.parametrize("k", [0, 1, 2])
def test_jordan_check_builds_f_once(monkeypatch, k):
    for lam in upto(5):
        eigen = _counter(monkeypatch, ep, "eigen")
        square = _counter(monkeypatch, vf, "square_op")
        check = vf.check_restrictions(lam, k)
        assert check.status == "pass", check
        assert (len(eigen), len(square)) == (1, 1), lam
        monkeypatch.undo()
