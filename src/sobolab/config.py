"""Structured text configs: sections [params], [distribution], [sweep].

The keys below are the CLI's interchange contract and their only list
(``_KEYS`` maps each to a dataclass field and parser).  A key left out takes
the field's default; a key not listed raises ConfigInvalid.

[params]
    k, p, d                 Sobolev order, integrability, dimension (required)

[distribution]
    radius                  domain ball radius
    density                 uniform | parabolic
    tilt                    parabolic tilt in [0, 1)
    sigma                   constant | quadratic
    sigma_a, sigma_b        constant: sigma(x) = sigma_a;
                            quadratic: sigma(x)^2 = sigma_a + sigma_b ||x||^2
    ground_truth            zero | bumps
    bumps                   one bump per line: d center coords, radius, weight

[sweep]
    id                      output file stem
    kind                    norm_vs_n | delta_subset | weighted_delta_sum |
                            risk_vs_n | risk_vs_gamma | morrey (required)
    n_grid                  at least 4 increasing sizes, each >= 2
    trials                  per-n repetitions (>= 5)
    seed                    master seed (CLI --seed overrides)
    shrink                  fixed shrink for risk_vs_n bumps
    shrink_grid             shrink values for risk_vs_gamma
    beta                    weighted-sum exponent, in (0, d/2)
    predictor               bump | kernel | bayes
    nu, lengthscale         kernel family parameters
    mc_samples              Monte Carlo budget per risk estimate
    plateau_ratio           plateau contract ratio
    risk_floor              plateau contract floor
"""

from __future__ import annotations

import configparser

from .bump import BumpSum, SobolevParams
from .errors import ConfigInvalid, SobolabError
from .experiments import SweepConfig
from .geometry import _float_rows
from .model import DistributionSpec


def _float_tuple(raw):
    return tuple(float(v) for v in raw.split())


def _int_tuple(raw):
    return tuple(int(v) for v in raw.split())


# section -> ini key -> (field, parser).  The two ground-truth keys of
# [distribution] together make DistributionSpec.ground_truth.
_KEYS = {
    "params": {"k": ("k", int), "p": ("p", float), "d": ("d", int)},
    "distribution": {
        "radius": ("radius", float),
        "density": ("density", str.strip),
        "tilt": ("tilt", float),
        "sigma": ("sigma_kind", str.strip),
        "sigma_a": ("sigma_a", float),
        "sigma_b": ("sigma_b", float),
        "ground_truth": ("ground_truth", str.strip),
        "bumps": ("bumps", str),
    },
    "sweep": {
        "id": ("config_id", str.strip),
        "kind": ("kind", str.strip),
        "n_grid": ("n_grid", _int_tuple),
        "trials": ("trials", int),
        "seed": ("master_seed", int),
        "shrink": ("shrink", float),
        "shrink_grid": ("shrink_grid", _float_tuple),
        "beta": ("beta", float),
        "predictor": ("predictor", str.strip),
        "nu": ("kernel_nu", float),
        "lengthscale": ("kernel_lengthscale", float),
        "mc_samples": ("mc_samples", int),
        "plateau_ratio": ("plateau_ratio", float),
        "risk_floor": ("risk_floor", float),
    },
}


def _read_ini(path):
    # values are literal: no key refers to another, and a '%' is a typo to
    # report by key, not an interpolation error
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigInvalid(f"config file not found: {path}") from None
    except configparser.Error as exc:
        raise ConfigInvalid(f"{path}: {exc}") from None
    return parser


def _read_section(parser, section, required=()):
    """{field: parsed value} for each key ``section`` sets; a key left out
    has no entry, so its field keeps the dataclass default."""
    if not parser.has_section(section):
        raise ConfigInvalid(f"{section}: section missing")
    table = _KEYS[section]
    fields = {}
    for key, raw in parser.items(section):
        if key not in table:
            raise ConfigInvalid(f"{section}.{key}: unknown key")
        name, cast = table[key]
        try:
            fields[name] = cast(raw)
        except (TypeError, ValueError):
            raise ConfigInvalid(
                f"{section}.{key}: cannot parse {raw!r}"
            ) from None
    for key in required:
        if table[key][0] not in fields:
            raise ConfigInvalid(f"{section}.{key}: required field missing")
    return fields


def _parse_bumps(raw, d):
    names = [f"c_{j + 1}" for j in range(d)] + ["radius", "weight"]
    try:
        rows = _float_rows("distribution.bumps", enumerate(
            map(str.split, raw.strip().splitlines()), 1), names)
    except SobolabError as exc:
        raise ConfigInvalid(str(exc)) from None
    try:
        return BumpSum(centers=rows[:, :d], radii=rows[:, d],
                       weights=rows[:, d + 1])
    except SobolabError as exc:
        raise ConfigInvalid(f"distribution.bumps: {exc}") from None


def parse_params(parser):
    fields = _read_section(parser, "params", required=("k", "p", "d"))
    try:
        return SobolevParams(**fields)
    except SobolabError as exc:
        raise ConfigInvalid(f"params: {exc}") from None


def parse_distribution(parser, params):
    fields = _read_section(parser, "distribution")
    kind = fields.pop("ground_truth", "zero")
    raw = fields.pop("bumps", None)
    if kind == "bumps":
        if raw is None:
            raise ConfigInvalid("distribution.bumps: required field missing")
        fields["ground_truth"] = _parse_bumps(raw, params.d)
    elif kind != "zero":
        raise ConfigInvalid(
            f"distribution.ground_truth: expected zero|bumps, got {kind!r}"
        )
    try:
        return DistributionSpec(params=params, **fields)
    except SobolabError as exc:
        raise ConfigInvalid(f"distribution: {exc}") from None


def parse_sweep(parser, spec, seed_override=None):
    fields = _read_section(parser, "sweep", required=("kind",))
    if seed_override is not None:
        fields["master_seed"] = seed_override
    return SweepConfig(spec=spec, **fields).validate()


def load_distribution(path):
    """(params, spec) from a config with [params] and [distribution]."""
    parser = _read_ini(path)
    params = parse_params(parser)
    return params, parse_distribution(parser, params)


def load_sweep(path, seed_override=None):
    """Full sweep config from a file with all three sections."""
    parser = _read_ini(path)
    spec = parse_distribution(parser, parse_params(parser))
    return parse_sweep(parser, spec, seed_override=seed_override)
