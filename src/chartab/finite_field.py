"""Empty: the mod-p reduction is `reduction` over `cyclo.remainder`.

The module is kept only because the bench's tracer lists it among the layers
it imports; it goes when that list drops it.
"""
