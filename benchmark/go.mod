module carousel/benchmark

go 1.22

require carousel v0.0.0

replace carousel => ../
