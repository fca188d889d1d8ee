"""Domain errors, each carrying a short machine-readable code.

The CLI prints ``code: message`` on stderr and exits 1 for any of these;
library users can branch on ``exc.code``.  Codes in use include
invalid-tuple, bound-exceeded, index-out-of-range, invalid-result,
invalid-origami, degenerate-leading-coefficient, pole-at-half,
no-such-lift, path-tracking-failure, product-constraint-violation,
pole-at-0-or-1, tolerance-unreachable,
expression-mismatch, broken-pipe (the CLI's, when the reader of stdout
has gone) and invalid-parameter (malformed arguments outside any deeper
category).
"""


class DessinryError(Exception):
    def __init__(self, code, message):
        super().__init__("%s: %s" % (code, message))
        self.code = code
        self.message = message
