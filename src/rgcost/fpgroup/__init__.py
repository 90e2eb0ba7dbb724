"""Finitely presented group engine: presentations, coset tables of kernels
and of low-index normal subgroups, subgroup presentations, abelianization
and gradient sampling.  The package exports nothing: import each name from
its module."""
