import json

import pytest

from stepbound.cli import main
from stepbound.semantics import DomainConfig, Evaluator
from stepbound.typecheck import elaborate


def nat(n):
    return ("nat", n)


def natlist(xs):
    return ("list", tuple(("nat", x) for x in xs))


def program_evaluator(p, mode, cfg):
    """An evaluator for the source program ``p``, and ``p``'s elaborated
    body to pass to its ``outcome``."""
    return Evaluator(p.theory, p.monoid, mode, cfg), elaborate(p).body


def live_keys(ev) -> list:
    """``(id(node), captured, argument)`` of every entry in ``ev``'s node
    tables."""
    return [(nid, captured, a) for nid, table in ev._tables.items()
            for captured, group in table.items() for a in group]


@pytest.fixture(scope="session")
def check_json(tmp_path_factory):
    """``check_json(mode)``: ``stepbound check --mode MODE --seed 0
    --json PATH``, run once per mode in a session, as ``(exit status,
    report entries)``."""
    runs = {}

    def run(mode):
        if mode not in runs:
            path = tmp_path_factory.mktemp("check") / f"report-{mode}.json"
            code = main(["check", "--mode", mode, "--seed", "0",
                         "--json", str(path)])
            runs[mode] = (code, json.loads(path.read_text()))
        return runs[mode]

    return run


@pytest.fixture
def small_cfg():
    return DomainConfig(nat_max=4, list_len=3, elems=3, state_max=4)
