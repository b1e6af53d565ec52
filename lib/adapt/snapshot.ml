let self_digest () =
  try Digest.file Sys.executable_name with Sys_error _ -> Digest.string "ppr"

let write ~magic ~version path v =
  let body = Marshal.to_string v [] in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      Printf.fprintf oc "%d %s %s %d\n" version
        (Digest.to_hex (self_digest ()))
        (Digest.to_hex (Digest.string body))
        (String.length body);
      output_string oc body);
  Sys.rename tmp path

let read ~magic ~version path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic -> (
    let check () =
      if really_input_string ic (String.length magic) <> magic then None
      else
        match String.split_on_char ' ' (input_line ic) with
        | [ v; exe; digest; len ] -> (
          match (int_of_string_opt v, int_of_string_opt len) with
          | Some v, Some len
            when v = version
                 && exe = Digest.to_hex (self_digest ())
                 && len = in_channel_length ic - pos_in ic ->
            let body = really_input_string ic len in
            if Digest.to_hex (Digest.string body) = digest then
              Some (Marshal.from_string body 0)
            else None
          | _ -> None)
        | _ -> None
    in
    match Fun.protect ~finally:(fun () -> close_in_noerr ic) check with
    | r -> r
    | exception _ -> None)
