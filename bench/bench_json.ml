(* Tiny JSON reader shared by the benchmark gate tools (wcoj_bench,
   ghd_bench and the rest). Telemetry.Json only emits JSON,
   so the gates bring their own small recursive-descent parser — which
   also keeps them independent from the writer they check. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("bad literal " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some 'b' -> Buffer.add_char buf '\b'
        | Some 'f' -> Buffer.add_char buf '\012'
        | Some ('"' | '\\' | '/') -> Buffer.add_char buf s.[!pos]
        | Some 'u' ->
          (* Keep the escape verbatim; none of the fields we compare use
             unicode escapes. *)
          Buffer.add_string buf "\\u"
        | _ -> fail "bad escape");
        advance ();
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when num_char c -> true | _ -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, value) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, value) :: acc)
          | _ -> fail "expected , or }"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let value = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (value :: acc)
          | Some ']' ->
            advance ();
            List.rev (value :: acc)
          | _ -> fail "expected , or ]"
        in
        Arr (elements [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field name = function
  | Obj members -> List.assoc_opt name members
  | _ -> None

let num name doc =
  match field name doc with Some (Num f) -> Some f | _ -> None

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  contents

let load path = parse (read_file path)

(* Re-express a parsed value in the emitting representation, so a gate
   can rewrite the file it read with an extra verdict member. *)
let rec emitable = function
  | Obj ms -> Telemetry.Json.Obj (List.map (fun (k, v) -> (k, emitable v)) ms)
  | Arr items -> Telemetry.Json.List (List.map emitable items)
  | Null -> Telemetry.Json.Null
  | Bool b -> Telemetry.Json.Bool b
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Telemetry.Json.Int (int_of_float f)
    else Telemetry.Json.Float f
  | Str s -> Telemetry.Json.String s

(* Replace (or add) one top-level member of a results file in place,
   keeping every other member as parsed. *)
let update_file path ~key ~value =
  let doc = load path in
  let updated =
    match doc with
    | Obj members ->
      Telemetry.Json.Obj
        (List.map
           (fun (k, v) -> (k, emitable v))
           (List.filter (fun (k, _) -> k <> key) members)
        @ [ (key, value) ])
    | other -> emitable other
  in
  let oc = open_out path in
  Telemetry.Json.to_channel oc updated;
  output_char oc '\n';
  close_out oc
