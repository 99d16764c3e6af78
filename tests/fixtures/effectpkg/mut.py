"""A parameter mutated in place (``poke``) and one only read
(``reader``), for the direct mutation inference."""


class Box:
    def __init__(self) -> None:
        self.items: list[int] = []


def poke(box: Box) -> None:
    box.items.append(1)


def reader(box: Box) -> int:
    return len(box.items)
