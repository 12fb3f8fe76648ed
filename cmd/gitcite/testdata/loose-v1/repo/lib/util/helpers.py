def helper():
    pass
