"""Type checks for values read from the program's JSON inputs."""


def check_type(name: str, value, kind: type):
    """`value`, if it is a `kind`: an int may stand for a float, and a bool
    only for a bool. Otherwise raises TypeError."""
    kinds = (int, float) if kind is float else kind
    if not isinstance(value, kinds) or isinstance(value, bool) != (kind is bool):
        raise TypeError(f"{name} must be {kind.__name__}, "
                        f"not {type(value).__name__}")
    return value
