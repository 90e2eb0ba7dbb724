"""rgcost: exact rank gradient, cost and first L2-Betti numbers for
Artin/Coxeter group families, with machine-checkable decomposition
certificates and a finitely-presented-group verification engine.

The package exports nothing: import each name from its module."""

__version__ = "0.1.0"
