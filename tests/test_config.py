import re
from pathlib import Path

import pytest

from sobolab import config

WORKLOADS = sorted((Path(__file__).parents[1] / "bench" / "workloads")
                   .glob("*.ini"))


def documented_keys():
    """{section: keys} as listed in the ``config`` module docstring: under
    each ``[section]`` line, the comma-separated names that open each line
    indented by four spaces."""
    keys, section = {}, None
    for line in config.__doc__.splitlines():
        header = re.fullmatch(r"\[(\w+)\]", line)
        if header:
            section = header.group(1)
            keys[section] = []
        elif section and re.match(r" {4}\S", line):
            names = re.split(r"\s{2,}", line.strip())[0]
            keys[section] += [name.strip() for name in names.split(",")]
    return keys


def test_docstring_lists_exactly_the_table_keys():
    documented = documented_keys()
    assert {s: sorted(k) for s, k in documented.items()} == {
        s: sorted(table) for s, table in config._KEYS.items()}
    assert all(len(k) == len(set(k)) for k in documented.values())


@pytest.mark.parametrize("path", WORKLOADS, ids=lambda p: p.stem)
def test_benchmark_workloads_load(path):
    assert len(WORKLOADS) == 4
    cfg = config.load_sweep(path, seed_override=781508)
    assert cfg.config_id == path.stem
    assert cfg.master_seed == 781508
