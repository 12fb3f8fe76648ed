module github.com/gitcite/gitcite/benchmark

go 1.22

require github.com/gitcite/gitcite v0.0.0

replace github.com/gitcite/gitcite => ../
