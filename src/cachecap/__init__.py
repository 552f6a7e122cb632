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

# Each layer imports only layers listed before it.
_LAYERS = ("model", "capacity", "traces", "entropy", "oracle")


def __getattr__(name: str) -> object:
    """``import cachecap`` loads no layer (PEP 562). A missing name imports the
    layers in ``_LAYERS`` order, binding each one's ``__all__`` here, and stops
    after the layer that holds it; every layer that layer imports comes before it.
    ``__all__`` and an unknown name import all five; once ``__all__`` is
    bound, so is every name, and a miss raises at once."""
    names = globals()
    if "__all__" not in names:
        from importlib import import_module

        exported = []
        for layer in _LAYERS:
            module = import_module(f"{__name__}.{layer}")
            for n in module.__all__:
                names.setdefault(n, getattr(module, n))
            exported += module.__all__
            if name in names:
                return names[name]
        names["__all__"] = exported
        if name == "__all__":
            return exported
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
