from run import tail_percentile


def test_highest_percentile_with_ten_beyond():
    assert tail_percentile(range(1, 101)) == (90, 90, 10)
    assert tail_percentile(range(1, 21)) == (10, 50, 10)
    value, pct, beyond = tail_percentile(range(1, 38))
    assert (pct, beyond) == (72, 10) and value == 27


def test_input_order_is_irrelevant():
    xs = [5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11, 12]
    assert tail_percentile(xs) == tail_percentile(sorted(xs))


def test_too_few_samples_give_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100, 0)
    assert tail_percentile([4.0] * 10) == (4.0, 100, 0)
