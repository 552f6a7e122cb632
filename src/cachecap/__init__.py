"""cachecap: capacity and entropy-efficiency analysis of caching networks.

Model a network of nodes that store classes of files and read from each
other with per-link transfer times, then ask how much the network can do:

- capacity: the growth exponent (bits per time unit) of the number of
  distinct read sequences a node can complete in a time budget, obtained
  from the largest root of the node's characteristic equation;
- entropy efficiency: the bits per time unit a given access process
  actually achieves, and the i.i.d. access distribution that attains the
  capacity;
- an exact task-counting oracle that validates the solver by brute force
  on grid-valued read times.
"""

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    """``import cachecap`` loads no layer: the first name the package lacks
    imports all five and binds every name in their ``__all__`` here (PEP 562)."""
    names = globals()
    if "__all__" not in names:
        from importlib import import_module

        layers = ("model", "capacity", "oracle", "entropy", "traces")
        modules = [import_module(f"{__name__}.{layer}") for layer in layers]
        names.update((n, getattr(m, n)) for m in modules for n in m.__all__)
        names["__all__"] = [n for m in modules for n in m.__all__]
    if name in names:
        return names[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
