type t = { added : int list; removed : int; seeds : int list }

let empty = { added = []; removed = 0; seeds = [] }
let is_empty d = d.added = [] && d.removed = 0
