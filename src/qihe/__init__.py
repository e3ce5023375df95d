"""qihe: a workbench for quantum information heat engines.

The library covers the full chain from single-engine bookkeeping to
block-coding limits:

* :mod:`qihe.qcore` -- validated density matrices, channels and
  measurements on small multipartite systems;
* :mod:`qihe.thermo` -- entropy-to-work conversion, Landauer reset
  costs and remotely completed Carnot cycles;
* :mod:`qihe.protocols` -- Bell, GHZ and even-parity energy
  distribution with interceptor and no-information analyses;
* :mod:`qihe.coding` -- Holevo communication/energy tradeoffs, typical
  subspaces and refactorization ledgers;
* :mod:`qihe.cli` -- the ``qihe`` command-line front end.

The package re-exports the ``__all__`` of each library module, so a
public name is listed once, in its module.
"""

from .qcore import *
from .thermo import *
from .protocols import *
from .coding import *

__version__ = "0.1.0"
