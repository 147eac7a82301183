"""Static guard on the size of each module of ``src/capelli`` in parser tokens.

Without a bytecode cache (``PYTHONDONTWRITEBYTECODE=1``, or a checkout that
holds none yet) every perfbench child compiles every module it imports, and
``verify`` imports them all, so the compiler's memory peak is part of
``peak_rss_mb`` on every workload.  Measured with Python 3.11.7 (tracemalloc
around ``compile``): the peak grows by about 0.4 KiB per parser token, and
steps up by about 250 KiB when a module passes 4,096 tokens, where the
parser's token array doubles.  A module at 4,096 tokens or more therefore
fails here.  Tokens are counted as the parser sees them: ``tokenize``
without COMMENT and NL tokens.

``identities.py`` also has a lower budget, 3,671 tokens, the size it had
before the identity-e chain moved onto integers: at about 0.4 KiB of
compiler peak per token, growing past it would show up in ``peak_rss_mb``,
so the chain's integer kernels go to ``hypergeom.py`` instead.
"""

import pathlib
import tokenize

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "capelli"
TOKEN_LIMIT = 4096
BUDGETS = {"identities.py": 3671}


def parser_tokens(path: pathlib.Path) -> int:
    with tokenize.open(path) as fh:
        return sum(1 for tok in tokenize.generate_tokens(fh.readline)
                   if tok.type not in (tokenize.COMMENT, tokenize.NL))


def test_counts_parser_tokens(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("x = 1  # c\n\nif x:\n    y = x\n", encoding="utf-8")
    # NAME OP NUMBER NEWLINE, NAME NAME OP NEWLINE, INDENT NAME OP NAME NEWLINE,
    # DEDENT ENDMARKER; the comment and the blank line are not counted
    assert parser_tokens(path) == 15


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_stays_below_the_parser_token_step(path):
    assert parser_tokens(path) < TOKEN_LIMIT, f"{path.name}: split it or shrink it"


@pytest.mark.parametrize("name, budget", sorted(BUDGETS.items()))
def test_module_stays_within_its_token_budget(name, budget):
    assert parser_tokens(SRC / name) <= budget, f"{name}: move code out or shrink it"
