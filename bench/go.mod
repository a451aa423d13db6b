module apf/bench

go 1.22

require apf v0.0.0

replace apf => ../
