import re

from capelli import knopsahi as ks
from capelli import verify as vf
from capelli.ratfunc import RatFunc, UniPoly


def test_raising_check_names_type_and_frame(monkeypatch):
    double_pole = RatFunc(UniPoly.one(), UniPoly((-3, 1)) ** 2)
    monkeypatch.setattr(ks, "characterization_holds", lambda lam: double_pole.residue(3))
    check = vf.check_characterization((2, 0))
    assert check.status == "fail" and check.rhs == "-"
    assert re.fullmatch(r"error: PoleError at ratfunc\.py:\d+: pole of order 2 at 3", check.lhs)


def test_bare_assertion_still_names_its_frame(monkeypatch):
    def broken(lam):
        raise AssertionError  # bare, as an ``assert`` in library code raises

    monkeypatch.setattr(ks, "characterization_holds", broken)
    check = vf.check_characterization((1, 0))
    assert re.fullmatch(r"error: AssertionError at test_verify\.py:\d+", check.lhs)

