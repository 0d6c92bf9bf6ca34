import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from file_mutations import line_mutations, write_lines
from sobolab import config
from sobolab.errors import ConfigInvalid

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


@settings(max_examples=300)
@given(data=st.data())
@pytest.mark.parametrize("path", WORKLOADS, ids=lambda p: p.stem)
def test_mutated_workload_raises_or_loads(path, tmp_path_factory, data):
    # a mutated config either raises ConfigInvalid naming the file or
    # loads; a config that loads as a sweep loads its [params] and
    # [distribution] alone too, to the same params.
    # Only the loaders run: a mutated n_grid, trials or mc_samples could
    # ask a run for unbounded memory
    mutated = tmp_path_factory.mktemp("config") / path.name
    write_lines(mutated, data.draw(line_mutations(
        path.read_text(encoding="utf-8").splitlines())))
    try:
        cfg = config.load_sweep(mutated)
    except ConfigInvalid as exc:
        assert str(mutated) in str(exc)
        cfg = None
    try:
        params, _ = config.load_distribution(mutated)
    except ConfigInvalid as exc:
        assert str(mutated) in str(exc)
        assert cfg is None
        return
    assert cfg is None or params == cfg.params
