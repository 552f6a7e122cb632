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

from .model import *
from .capacity import *
from .oracle import *
from .entropy import *
from .traces import *

__version__ = "0.1.0"
