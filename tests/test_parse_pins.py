"""What the parser reads and rejects, and what the printer writes, pinned
by digest.

The sources are each corpus program as ``print_program`` writes it,
seeded generated programs, the ``programs/*.sb`` files, and seeded
one-token mutants of each: a token of the program form (headers are left
alone) is deleted, doubled, or replaced by a token from a fixed list.

For each source the digest takes what ``parse`` returned, every field of
every node with its source location, or else the ``(line, col)`` of the
``SyntaxError_``; the message is not pinned.  A second digest takes the
``print_program`` text of every source that parses.

The digests were printed by the parser and printer with one match case
per form, before both came to read a table of forms.
"""

import hashlib
import random
import re
from pathlib import Path

import pytest

from stepbound.corpus import ALL_PROGRAMS
from stepbound.gen import TermGen, random_theory
from stepbound.syntax import SyntaxError_, parse, print_program

_PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

# what a mutant may put in place of a token: every keyword and form head,
# numerals, names, a rational and the brackets
_TOKENS = (
    "(", ")", ":", "->", "ret", "bind", "lam", "ap", "step", "natrec",
    "listrec", "if", "case", "branch", "fail", "flip", "get", "set", "par",
    "suc", "cons", "pair", "fst", "snd", "inl", "inr", "tt", "true",
    "false", "zero", "nil", "unit", "bool", "nat", "prod", "sum", "list",
    "U", "F", "0", "1", "2", "x", "k", "ih", "1/2", "3/2",
)

_TOKEN = re.compile(r"[()]|[^\s();]+")


def _dump(x) -> str:
    """``x`` printed with every record field, ``loc`` included."""
    if isinstance(x, tuple):
        return "(" + ", ".join(map(_dump, x)) + ")"
    fields = getattr(x, "__record_fields__", None)
    if fields is None:
        return repr(x)
    return type(x).__name__ + "(" + ", ".join(
        f"{name}={_dump(getattr(x, name))}" for name in fields) + ")"


def _read(source: str):
    """``(parsed, printed)``: the program's fields and its printed text, or
    the syntax error's position and None."""
    try:
        p = parse(source)
    except SyntaxError_ as e:
        return f"error at {e.line}:{e.col}", None
    return (f"{p.name!r} {_dump(p.theory)} {p.monoid.name} "
            f"{_dump(p.declared_ty)} {_dump(p.body)}"), print_program(p)


def _mutants(source: str, rng: random.Random, count=12):
    """``count`` one-token mutants of the program form of ``source``."""
    lines = source.split("\n")
    spots = [(i, m.start(), m.end())
             for i, line in enumerate(lines)
             if not line.strip().startswith("#")
             for m in _TOKEN.finditer(line.split(";")[0])]
    for _ in range(count):
        i, start, end = rng.choice(spots)
        line, token = lines[i], lines[i][start:end]
        new = rng.choice(("", f"{token} {token}", rng.choice(_TOKENS)))
        yield "\n".join(lines[:i] + [line[:start] + new + line[end:]]
                        + lines[i + 1:])


def corpus_sources():
    return [print_program(p) for p in ALL_PROGRAMS]


def generated_sources(count=300):
    rng = random.Random(2025)
    return [print_program(TermGen(rng, random_theory(rng)).program(depth=4))
            for _ in range(count)]


def file_sources():
    return [path.read_text(encoding="utf-8")
            for path in sorted(_PROGRAMS.glob("*.sb"))]


def _with_mutants(sources, seed):
    rng = random.Random(seed)
    out = []
    for source in sources:
        out.append(source)
        out.extend(_mutants(source, rng))
    return out


def _digest(lines):
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _digests(sources):
    read = [_read(s) for s in sources]
    return (_digest([parsed for parsed, _ in read]),
            _digest([printed for _, printed in read if printed is not None]))


# ((sources, sha256 prefix), (printed, sha256 prefix)) per group
_PINNED = {
    "corpus": ((481, "f86c85055a45d5c2"), (53, "22a8ae193b50508d")),
    "generated": ((3900, "791213c6f9a4950e"), (371, "8a3ded70816f0afd")),
    "files": ((52, "9e30a61edc23a344"), (7, "8289061d1dca0f44")),
}

_GROUPS = {
    "corpus": (corpus_sources, 1),
    "generated": (generated_sources, 2),
    "files": (file_sources, 3),
}


@pytest.mark.parametrize("group", sorted(_GROUPS))
def test_parses_and_prints_are_pinned(group):
    sources, seed = _GROUPS[group]
    assert _digests(_with_mutants(sources(), seed)) == _PINNED[group]
