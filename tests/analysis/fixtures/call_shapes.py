"""Fixture: the call shapes the call graph must resolve.

``Shared.put`` calls its own helper through ``self._helper()``.
``Right.poke`` and ``Left.poke`` call across classes through
attributes whose types come from annotated ``__init__`` parameters
(one of them a forward-reference string).
"""


class Shared:
    def __init__(self):
        self._items = {}

    def put(self, key, value):
        self._helper(key, value)

    def _helper(self, key, value):
        self._items[key] = value


class Right:
    def __init__(self, left: "Left"):
        self.left = left

    def poke(self):
        self.left.prod()

    def prod_inner(self):
        return "right"


class Left:
    def __init__(self, right: Right):
        self.right = right

    def poke(self):
        self.right.prod_inner()

    def prod(self):
        return "left"
