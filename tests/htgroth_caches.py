"""Every cache of the ``htgroth`` modules, found rather than listed, and one call to clear them all.

A cache is a module-level function with ``cache_clear`` (an
``functools.lru_cache``).  It is named ``module.qualname`` after the module
that defines it, and found once however many modules import it, so a new
cache joins without an edit here.
"""

import importlib
import pkgutil

import htgroth


def htgroth_caches() -> dict:
    """``module.qualname`` -> every ``cache_clear``-able function of the htgroth modules."""
    found = {}
    for info in pkgutil.iter_modules(htgroth.__path__):
        module = importlib.import_module(f"htgroth.{info.name}")
        for obj in vars(module).values():
            owner = getattr(obj, "__module__", None) or ""
            if callable(getattr(obj, "cache_clear", None)) and owner.startswith("htgroth."):
                found[f"{owner.removeprefix('htgroth.')}.{obj.__qualname__}"] = obj
    return found


def clear_htgroth_caches() -> None:
    for cache in htgroth_caches().values():
        cache.cache_clear()
