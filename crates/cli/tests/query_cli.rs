//! `alex query` end to end: two datasets joined through an `owl:sameAs`
//! links file, answers on stdout with their link provenance.

use std::fs;
use std::process::Command;

#[test]
fn a_federated_join_prints_its_answer_and_provenance() {
    let dir = std::env::temp_dir().join(format!("alex-query-cli-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_owned()
    };
    let left = write(
        "a.nt",
        "<http://db/LeBron> <http://db/award> <http://db/MVP2013> .\n\
         <http://db/Kobe> <http://db/award> <http://db/MVP2008> .\n",
    );
    let right = write(
        "b.nt",
        "<http://nyt/article1> <http://nyt/about> <http://nyt/lebron> .\n\
         <http://nyt/article2> <http://nyt/about> <http://nyt/kobe> .\n",
    );
    let links = write(
        "links.nt",
        "<http://db/LeBron> <http://www.w3.org/2002/07/owl#sameAs> <http://nyt/lebron> .\n",
    );
    let out = Command::new(env!("CARGO_BIN_EXE_alex"))
        .args(["query", "--source", &left, "--source", &right])
        .args(["--links", &links, "--query"])
        .arg(
            "SELECT ?article WHERE { ?p <http://db/award> <http://db/MVP2013> . \
             ?article <http://nyt/about> ?p }",
        )
        .output()
        .expect("run alex");
    let _ = fs::remove_dir_all(&dir);

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("installed 1 owl:sameAs links"), "{stderr}");
    assert!(stderr.contains("1 answer(s)"), "{stderr}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "<http://nyt/article1>\t# via http://db/LeBron≡http://nyt/lebron\n"
    );
}
