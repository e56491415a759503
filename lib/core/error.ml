type t =
  | FAIL
  | BUSY
  | ALREADY
  | OFF
  | RESERVE
  | INVAL
  | SIZE
  | CANCEL
  | NOMEM
  | NOSUPPORT
  | NODEVICE
  | UNINSTALLED
  | NOACK

let to_int = function
  | FAIL -> 1
  | BUSY -> 2
  | ALREADY -> 3
  | OFF -> 4
  | RESERVE -> 5
  | INVAL -> 6
  | SIZE -> 7
  | CANCEL -> 8
  | NOMEM -> 9
  | NOSUPPORT -> 10
  | NODEVICE -> 11
  | UNINSTALLED -> 12
  | NOACK -> 13

let of_int = function
  | 1 -> Some FAIL
  | 2 -> Some BUSY
  | 3 -> Some ALREADY
  | 4 -> Some OFF
  | 5 -> Some RESERVE
  | 6 -> Some INVAL
  | 7 -> Some SIZE
  | 8 -> Some CANCEL
  | 9 -> Some NOMEM
  | 10 -> Some NOSUPPORT
  | 11 -> Some NODEVICE
  | 12 -> Some UNINSTALLED
  | 13 -> Some NOACK
  | _ -> None

let to_string = function
  | FAIL -> "FAIL"
  | BUSY -> "BUSY"
  | ALREADY -> "ALREADY"
  | OFF -> "OFF"
  | RESERVE -> "RESERVE"
  | INVAL -> "INVAL"
  | SIZE -> "SIZE"
  | CANCEL -> "CANCEL"
  | NOMEM -> "NOMEM"
  | NOSUPPORT -> "NOSUPPORT"
  | NODEVICE -> "NODEVICE"
  | UNINSTALLED -> "UNINSTALLED"
  | NOACK -> "NOACK"

let pp fmt t = Format.pp_print_string fmt (to_string t)
