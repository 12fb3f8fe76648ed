def feature():
    return 1
