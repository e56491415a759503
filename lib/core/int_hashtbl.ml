(* Fold the high bits down (driver numbers differ mostly above bit 16)
   and spread them with an odd multiplier; the tables mask the low bits. *)
let[@inline] mix x =
  let x = x lxor (x lsr 17) in
  let x = x * 0x2C1B3C6D in
  x lxor (x lsr 15)

module Int = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash x = mix x
end)
