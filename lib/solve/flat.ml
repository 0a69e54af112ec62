type t = Ordered.Gop.t

let compile g = g
