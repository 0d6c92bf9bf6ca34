"""The bump scaling law in closed form: the formula that criterion 05 and
``tests/test_bump.py`` check against :mod:`box_oracle`'s quadrature at
each radius."""

from sobolab.errors import NonpositiveRadius


def scaled_seminorm(alpha, delta, moduli):
    """Exact integral |D^alpha psi_delta|^p = delta^(d-|alpha|p) M_alpha."""
    if not delta > 0.0:
        raise NonpositiveRadius(f"bump radius must be positive, got {delta}")
    m = moduli.modulus(alpha)
    params = moduli.params
    return delta ** (params.d - sum(alpha) * params.p) * m
