"""chowops: reduced-power Steenrod operations on mod-p Chow rings of
classifying spaces, with exact F_p linear algebra underneath.

The layers, bottom up: `fp_linalg` (exact matrices over F_p), `powers`
(Adem rewriting to admissible normal form), `modules` (unstable modules,
Brown-Gitler duals, Hom, tensor, nilpotence), `chow` (the catalog
polynomial rings, with the reduced-power action in closed form),
`groups` (finite group machinery),
`lannes` (T-functor dimensions and the comparison map), `localization`
(the level-n localization map, its equalizer, F-isomorphism certificates,
and d0/d1 estimates), `cli` (the chowops command).
"""

# One numpy row reduction serves every caller; benchmark records carry
# this name so that results from different kernels are never compared.
kernel_backend = "fallback"
__version__ = "0.1.0"
__all__ = ["kernel_backend", "__version__"]
