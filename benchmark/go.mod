module github.com/meanet/meanet/benchmark

go 1.22

require github.com/meanet/meanet v0.0.0

replace github.com/meanet/meanet => ../
