"""IMS segment type definitions (the DBD, in IMS terms).

An IMS database is a forest of *segments* arranged in a hierarchy: a
root segment type and, under each type, an ordered list of child types.
Each segment occurrence carries a fixed set of fields, one of which may
be a key ("sequence field").  Figure 2 of the paper uses::

    SUPPLIER (root, key SNO)
      ├── PARTS (key PNO)
      └── AGENT (key ANO)

with HIDAM organization: key-sequenced roots reachable through an index,
and parent-child/twin pointers below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ImsError


@dataclass
class SegmentType:
    """One segment type of the hierarchy.

    Attributes:
        name: segment name (upper case).
        fields: field names, in storage order.
        key_field: the sequence field, or None for unkeyed segments.
        parent: the parent type (None for the root).
        children: child types in hierarchic order.
    """

    name: str
    fields: list[str]
    key_field: str | None = None
    parent: "SegmentType | None" = None
    children: list["SegmentType"] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.name = self.name.upper()
        self.fields = [f.upper() for f in self.fields]
        if self.key_field is not None:
            self.key_field = self.key_field.upper()
            if self.key_field not in self.fields:
                raise ImsError(
                    f"key field {self.key_field!r} is not a field of "
                    f"segment {self.name!r}"
                )

    def field_index(self, name: str) -> int:
        """Positional index of a field."""
        try:
            return self.fields.index(name.upper())
        except ValueError:
            raise ImsError(
                f"segment {self.name!r} has no field {name!r}"
            ) from None

    def child(self, name: str) -> "SegmentType":
        """Look up a child segment type by name."""
        for child in self.children:
            if child.name == name.upper():
                return child
        raise ImsError(f"segment {self.name!r} has no child {name!r}")

    def is_root(self) -> bool:
        """Whether this type is the hierarchy root."""
        return self.parent is None

    def add_child(
        self, name: str, fields: list[str], key_field: str | None = None
    ) -> "SegmentType":
        """Define and attach a child segment type (multi-level builds)."""
        child = SegmentType(name, fields, key_field, parent=self)
        self.children.append(child)
        return child

    def is_descendant_of(self, ancestor: "SegmentType") -> bool:
        """Whether *ancestor* appears on this type's parent chain."""
        current = self.parent
        while current is not None:
            if current is ancestor:
                return True
            current = current.parent
        return False


class Hierarchy:
    """A database description: the root segment type plus lookup by name."""

    def __init__(self, root: SegmentType) -> None:
        if not root.is_root():
            raise ImsError("hierarchy root must have no parent")
        self.root = root
        self._by_name: dict[str, SegmentType] = {}
        self._register(root)

    def _register(self, segment_type: SegmentType) -> None:
        if segment_type.name in self._by_name:
            raise ImsError(f"duplicate segment name {segment_type.name!r}")
        self._by_name[segment_type.name] = segment_type
        for child in segment_type.children:
            if child.parent is not segment_type:
                raise ImsError(
                    f"segment {child.name!r} has inconsistent parent link"
                )
            self._register(child)

    def segment_type(self, name: str) -> SegmentType:
        """Look up a segment type anywhere in the hierarchy."""
        try:
            return self._by_name[name.upper()]
        except KeyError:
            raise ImsError(f"unknown segment {name!r}") from None


def define_hierarchy(
    root_name: str,
    root_fields: list[str],
    root_key: str,
    children: list[tuple[str, list[str], str | None]],
) -> Hierarchy:
    """Convenience constructor for one-level hierarchies (like Figure 2).

    *children* is a list of ``(name, fields, key_field)`` triples.
    """
    root = SegmentType(root_name, root_fields, root_key)
    for name, fields, key in children:
        child = SegmentType(name, fields, key, parent=root)
        root.children.append(child)
    return Hierarchy(root)
