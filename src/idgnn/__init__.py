"""Identity-aware GNN toolkit: analytic walk counts, a 1-WL lab with exact
isomorphism checking, seeded synthetic graph generators, and a trainable
message-passing engine with plain, identity-full and identity-fast variants.

Importing the package loads none of its modules: import each name from the
module that defines it, as in ``from idgnn.graph import build_graph``.
"""

__version__ = "0.1.0"
