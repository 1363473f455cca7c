"""Exact computation of Lusztig q-weight multiplicities beyond type A,
their Kirillov-Reshetikhin crystal formulas, and the level-restricted
refinement, all over exact integer arithmetic.
"""

import sys

from .polynomials import Poly, poly_str
from .qweight import (
    kl_level_restricted,
    kl_poly,
    kl_qt_B,
    q_kostant,
    stable_kl,
    weight_multiplicity,
)
from .charge import charge, kostka_foulkes
from .characters import character, e_poly, lr_coef, schur, twisted_branching_d
from .kr_column import (
    BOX,
    HDOM,
    VDOM,
    ColumnKR,
    energy_chain,
    energy_col,
    iota_col,
    local_H,
    r_matrix_col,
    split_col,
    split_image_hw,
    vac,
    vac_qt_energy,
)
from .kr_row import (
    RowKR,
    e0_row,
    energy_row,
    eps0,
    eps0_row,
    f0_row,
    phi0_row,
    r_matrix_row,
    split_row,
)
from .letters import EMPTY, is_admissible, red, unred
from .oscillating import (
    GSSOT,
    SSOT,
    SSROT,
    aug,
    cind,
    deaug_last_row,
    enumerate_chains,
    gamma,
    gamma_inv,
    hw_row_elements,
    phi_c,
    phi_r,
    reshape_aug,
    rind_ohs,
    rind_rohs,
    std,
)
from .identities import (
    IdentityReport,
    level_formula,
    morris_b_qt,
    morris_c,
    q1_count,
    thm_b_rhs,
    thm_c_rhs,
    xk_filter_table,
    xk_lhs,
    xk_rhs_unfiltered,
)
from .rsk import alpha, beta, burge, phi_bc, row_insert, theta_1n

from . import kr_row, oscillating, qweight

__version__ = "0.1.0"


def _lru_caches():
    """Each functools.lru_cache defined in krlab's modules, by module.name."""
    for name, mod in list(sys.modules.items()):
        if not name.startswith(__name__ + "."):
            continue
        for attr, fn in vars(mod).items():
            if hasattr(fn, "cache_clear") and getattr(fn, "__module__", None) == name:
                yield name[len(__name__) + 1 :] + "." + attr, fn


_DICTS = {
    "oscillating._shapes": oscillating._shapes,
    "qweight._memo": qweight._memo,
    "kr_row._tables": kr_row._tables,
}


def cache_sizes():
    """Entries held by each memo table that clear_caches() empties, by
    module.name: every lru_cache, the strip cache's shape table, the
    q-Kostant memo and the row R-matrix tables."""
    out = {name: fn.cache_info().currsize for name, fn in _lru_caches()}
    out.update((name, len(table)) for name, table in _DICTS.items())
    return out


def clear_caches():
    """Empty every memo table krlab keeps: each functools.lru_cache defined
    in its modules, the chain layer's strip cache with its shape table, the
    q-Kostant memo and the row R-matrix tables.  Later results are the same,
    only computed afresh."""
    for _, fn in _lru_caches():
        fn.cache_clear()
    for table in _DICTS.values():
        table.clear()
