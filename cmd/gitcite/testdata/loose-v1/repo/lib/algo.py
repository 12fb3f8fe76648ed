def rewrite(q):
    return q.simplify()
