"""Exception types shared across the engine, and the JSON readers' shape checks."""
from collections.abc import Mapping


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateWorld(EngineError):
    pass


class DanglingWorldRef(EngineError):
    pass


class UnknownWorld(EngineError):
    pass


class UnknownAgent(EngineError):
    pass


class AgentMismatch(EngineError):
    pass


class DanglingEventRef(EngineError):
    pass


class DepthExceeded(EngineError):
    def __init__(self, event: str, depth: int, bound: int):
        super().__init__(
            f"precondition of event {event!r} has modal depth {depth}, bound is {bound}"
        )
        self.event = event
        self.depth = depth
        self.bound = bound


class NotApplicable(EngineError):
    pass


class UnknownActionName(EngineError):
    pass


class FormulaSyntaxError(EngineError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotAMatch(EngineError):
    pass


class IllegalFlavor(EngineError):
    pass


class InvalidProblem(EngineError):
    pass


class NotEuclidean(EngineError):
    pass


class NotSingleAgent(EngineError):
    pass


class MalformedDocument(EngineError):
    """A JSON document does not have the shape its reader expects."""


_KINDS = {dict: (Mapping, "an object"), list: ((list, tuple), "an array"),
          str: (str, "a string"), int: (int, "an integer")}


def shaped(value, kind: type, what: str):
    """``value`` if it is a JSON ``kind`` (dict, list, str or int), else MalformedDocument."""
    types, name = _KINDS[kind]
    if not isinstance(value, types) or isinstance(value, bool):
        raise MalformedDocument(f"{what} must be {name}, not {type(value).__name__}")
    return value


def field_of(doc, key: str, kind: type | None, what: str):
    """``doc[key]``, shaped as ``kind`` unless that is None; ``doc`` must be an object."""
    if key not in shaped(doc, dict, what):
        raise MalformedDocument(f"{what} has no {key!r}")
    return doc[key] if kind is None else shaped(doc[key], kind, f"{what} {key!r}")


def strings(value, what: str) -> list[str]:
    return [shaped(x, str, f"{what} entry") for x in shaped(value, list, what)]


def string_pairs(value, what: str) -> list[tuple[str, str]]:
    pairs = [tuple(strings(pair, f"{what} pair")) for pair in shaped(value, list, what)]
    if any(len(pair) != 2 for pair in pairs):
        raise MalformedDocument(f"every {what} pair must have 2 entries")
    return pairs
