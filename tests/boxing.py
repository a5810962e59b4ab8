"""Boxing between Scalars and the raw field values that the kernels of
`linalg`, `poly`, `Presentation` and `cancel.FiniteDimAlgebra` compute
on. A test hands a kernel Scalars through `raw` and compares what it
gives back with Scalars through `box`."""

from skewcalc.scalars import Scalar


def raw(x):
    """`x` with every Scalar in it replaced by its raw value, through
    dicts (values only), lists and tuples."""
    if isinstance(x, Scalar):
        return x.value
    if isinstance(x, dict):
        return {k: raw(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(raw(v) for v in x)
    return x


def box(field, x):
    """`x`, raw values of `field` in dicts (values only) and lists, with
    every raw value boxed in a Scalar; None stays None. A tuple is a raw
    value, so a tuple of results is boxed one part at a time."""
    if x is None:
        return None
    if isinstance(x, dict):
        return {k: box(field, v) for k, v in x.items()}
    if isinstance(x, list):
        return [box(field, v) for v in x]
    return Scalar(field, x)


def boxed_call(field, fn, *args):
    """fn(*args) for a raw kernel `fn` over `field`, called with Scalars:
    the arguments pass through `raw` and the result through `box`, a tuple
    of lists or dicts and a list of (list, multiplicity) pairs one list or
    dict at a time."""
    out = fn(*raw(args))
    if out is None or isinstance(out, bool):
        return out
    if isinstance(out, tuple) and all(isinstance(x, (list, dict)) for x in out):
        return tuple(box(field, x) for x in out)  # (quotient, remainder), ...
    if out and isinstance(out, list) and isinstance(out[0], tuple) \
            and isinstance(out[0][0], list):  # pairs (polynomial, multiplicity)
        return [(box(field, g), m) for g, m in out]
    return box(field, out)


class Boxed:
    """The raw kernels of a module that take the field last, such as
    `poly`, or of an object with a `field`, such as a `FiniteDimAlgebra`,
    each called through `boxed_call`."""

    def __init__(self, kernels):
        self.kernels = kernels

    def __getattr__(self, name):
        fn = getattr(self.kernels, name)
        field = getattr(self.kernels, "field", None)

        def call(*args):
            return boxed_call(args[-1] if field is None else field, fn, *args)

        return call
