import sys

import pytest


@pytest.fixture(params=[None, 640, 0],
                ids=["limit-unchanged", "limit-640", "limit-off"])
def int_digit_limit(request):
    """Runs a test under the interpreter's int() digit limit as it stands,
    at the lowest value the limit takes (640), and with it off (0)."""
    if request.param is None:
        yield
        return
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int() digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)
