"""Exact computation of Lusztig q-weight multiplicities beyond type A,
their Kirillov-Reshetikhin crystal formulas, and the level-restricted
refinement, all over exact integer arithmetic.

The package exports only clear_caches and cache_sizes, which cover the
modules loaded so far, and __version__; import every other name from its
module, as in `from krlab.qweight import kl_poly`.
"""

import sys

from . import kr_column, kr_row, oscillating, qweight

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
    "kr_column._factors": kr_column._factors,
}


def cache_sizes():
    """Entries held by each memo table that clear_caches() empties, by
    module.name: every lru_cache, the strip caches' shape table, the
    q-Kostant memo, the row R-matrix tables, the table of interned KR
    factors and the column and the row factors' step tables."""
    out = {name: fn.cache_info().currsize for name, fn in _lru_caches()}
    out.update((name, len(table)) for name, table in _DICTS.items())
    out["kr_column.steps"] = kr_column.step_entries(kr_column.ColumnKR)
    out["kr_row.steps"] = kr_column.step_entries(kr_row.RowKR)
    return out


def clear_caches():
    """Empty every memo table krlab keeps: each functools.lru_cache defined
    in its modules, the chain layer's strip caches with their shape table,
    the q-Kostant memo, the row R-matrix tables and the table of interned
    KR factors with their step tables.  Later results are the same, only
    computed afresh; a factor built afresh equals the one it replaces."""
    for _, fn in _lru_caches():
        fn.cache_clear()
    kr_column.clear_steps()
    for table in _DICTS.values():
        table.clear()
