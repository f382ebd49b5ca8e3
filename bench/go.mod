module senseaid/bench

go 1.22

require senseaid v0.0.0

replace senseaid => ../
