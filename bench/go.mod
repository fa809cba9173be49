module pcomb/bench

go 1.22

require pcomb v0.0.0

replace pcomb => ../
